/**
 * @file
 * Tests for the bench binaries' shared JSON writer (bench/bench_json.hpp):
 * literals stay strings, strings are escaped, non-finite numbers
 * become null, and a non-string pointer does not compile. The layout
 * is the pretty-printed one the checked-in BENCH_*.json baselines use.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_json.hpp"

namespace {

template <typename W, typename V>
concept FieldAccepts = requires(W w, V v) { w.field("k", v); };

// A non-string pointer has no overload to decay into `true`.
static_assert(FieldAccepts<authbench::Json &, const char *>);
static_assert(!FieldAccepts<authbench::Json &, const int *>);
static_assert(!FieldAccepts<authbench::Json &, void *>);

template <typename Fill>
std::string
render(Fill &&fill)
{
    std::ostringstream os;
    authbench::Json j(os);
    j.open();
    fill(j);
    j.close();
    return os.str();
}

} // namespace

TEST(BenchJson, LiteralIsWrittenAsString)
{
    const std::string out = render([](authbench::Json &j) {
        j.field("schema", "authenticache-bench-transport-v1");
        j.field("quick", false);
    });
    EXPECT_EQ(out, "{\n"
                   "  \"schema\": \"authenticache-bench-transport-v1\",\n"
                   "  \"quick\": false\n"
                   "}\n");
}

TEST(BenchJson, EscapesStringsAndKeys)
{
    const std::string out = render([](authbench::Json &j) {
        j.field("a\"b", std::string("x\\y\"z\n"));
    });
    EXPECT_EQ(out, "{\n  \"a\\\"b\": \"x\\\\y\\\"z\\u000a\"\n}\n");
}

TEST(BenchJson, NonFiniteNumbersAreNull)
{
    const std::string out = render([](authbench::Json &j) {
        j.field("nan", std::nan(""));
        j.field("inf", std::numeric_limits<double>::infinity());
        j.field("v", std::vector<double>{1.5, -std::nan("")});
    });
    EXPECT_EQ(out, "{\n"
                   "  \"nan\": null,\n"
                   "  \"inf\": null,\n"
                   "  \"v\": [1.5, null]\n"
                   "}\n");
}

TEST(BenchJson, NestedLayoutMatchesBaselines)
{
    const std::string out = render([](authbench::Json &j) {
        j.openArray("benchmarks");
        j.openObject();
        j.field("ops", std::uint64_t(1920));
        j.field("ops_per_s", 45791.0806273123);
        j.closeObject();
        j.closeArray();
        j.openObject("derived");
        j.field("ratio", 2.0);
        j.closeObject();
    });
    EXPECT_EQ(out, "{\n"
                   "  \"benchmarks\": [\n"
                   "    {\n"
                   "      \"ops\": 1920,\n"
                   "      \"ops_per_s\": 45791.0806273\n"
                   "    }\n"
                   "  ],\n"
                   "  \"derived\": {\n"
                   "    \"ratio\": 2\n"
                   "  }\n"
                   "}\n");
}
