/**
 * @file
 * The benchmark's own tests: the JSON writer keeps string literals
 * strings, an honest exchange passes the correctness checks, and a
 * deliberately corrupted response or recovered state trips them.
 * Plain asserts-that-stay (no test framework), so the benchmark
 * package builds with nothing beyond the library it measures.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <variant>

#include "common.hpp"
#include "json.hpp"
#include "server/durability.hpp"

namespace {

namespace ac = authenticache;
namespace pr = ac::protocol;
using namespace perfbench;

int failures = 0;

#define EXPECT(cond)                                                       \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,   \
                         __LINE__, #cond);                                 \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

template <typename W, typename V>
concept FieldAccepts = requires(W w, V v) { w.field("k", v); };

void
jsonWritesLiteralsAsStrings()
{
    JsonWriter w;
    w.field("schema", "authbench-report-v1").field("ok", true);
    w.object("m").field("value", 1.5).field("n", std::uint64_t{3}).end();
    EXPECT(w.finish() == "{\"schema\": \"authbench-report-v1\", "
                         "\"ok\": true, \"m\": {\"value\": 1.5, \"n\": 3}}");

    JsonWriter esc;
    esc.field("s", std::string("a\"b\\c\n"));
    EXPECT(esc.finish() == "{\"s\": \"a\\\"b\\\\c\\u000a\"}");

    // A non-string pointer has no overload to decay into `true`.
    static_assert(FieldAccepts<JsonWriter &, const char *>);
    static_assert(!FieldAccepts<JsonWriter &, const int *>);
    static_assert(!FieldAccepts<JsonWriter &, void *>);
}

constexpr FleetSpec kSmall{8, 64u << 10, 40};

std::unique_ptr<ac::server::AuthenticationServer>
smallServer(const Fleet &fleet)
{
    ac::server::ServerConfig cfg;
    cfg.challengeBits = 32;
    auto server = std::make_unique<ac::server::AuthenticationServer>(cfg, 7);
    enrollFleet(*server, fleet);
    return server;
}

void
honestWavesPassTheChecks()
{
    const Fleet fleet(kSmall, 11);
    auto server = smallServer(fleet);
    ac::util::ThreadPool pool(2);
    Checker check;
    WaveRunner runner(*server, fleet, check, 11);
    std::vector<AuthOp> ops;
    for (std::size_t i = 0; i < fleet.size(); ++i)
        ops.push_back({Fleet::id(i), i % 2 ? 0u : 32u});
    OpTally tally;
    std::vector<double> lat;
    runner.run(ops, 3, pool, tally, &lat);
    EXPECT(check.ok());
    EXPECT(tally.attempted == ops.size());
    EXPECT(tally.accepted == ops.size() / 2); // Every bit flipped: rejected.
    EXPECT(tally.failed == 0);
    EXPECT(lat.size() == ops.size());
}

void
corruptedResponseTripsTheChecks()
{
    const Fleet fleet(kSmall, 12);
    auto server = smallServer(fleet);
    ac::util::ThreadPool pool(1);
    Checker check;
    const std::uint64_t device = Fleet::id(3);
    const std::int64_t thr =
        ac::server::Verifier(server->config().verifier).thresholdFor(32);

    ReplyCollector sink;
    std::vector<ac::server::Frame> frames{
        {pr::encodeMessage(pr::AuthRequest{device}), &sink.sink(0)}};
    server->handleBatch(frames, pool);
    pr::Message m;
    EXPECT(sink.replies.size() == 1);
    EXPECT(decodeReply(sink.replies.at(0).second, m, check));
    const auto *challenge = std::get_if<pr::ChallengeMsg>(&m);
    EXPECT(challenge != nullptr);
    if (challenge == nullptr)
        return;

    // An honest device's answer, then bits flipped that the
    // generator never declared.
    ac::core::Response r = fleet.respond(device, challenge->challenge);
    for (std::size_t i = 0; i < static_cast<std::size_t>(thr) + 1; ++i)
        r.flip(i);
    frames = {{pr::encodeMessage(pr::ResponseMsg{challenge->nonce, r}),
               &sink.sink(0)}};
    sink.replies.clear();
    server->handleBatch(frames, pool);
    EXPECT(sink.replies.size() == 1);
    EXPECT(decodeReply(sink.replies.at(0).second, m, check));
    const auto *decision = std::get_if<pr::AuthDecision>(&m);
    EXPECT(decision != nullptr);
    if (decision == nullptr)
        return;
    EXPECT(!check.checkDecision(*decision, 0, thr));
    EXPECT(!check.ok());
    EXPECT(check.examples().front().find("honest attempt rejected") == 0);

    // Undeclared flips within the threshold: accepted, but the
    // distance disagrees with the zero flips the op declared.
    Checker within;
    pr::AuthDecision close{decision->nonce, true, 1};
    EXPECT(!within.checkDecision(close, 0, thr));
    EXPECT(!within.ok());
}

void
divergentRecoveryTripsTheChecks()
{
    const Fleet fleet(kSmall, 13);
    auto server = smallServer(fleet);
    ScratchDir scratch(".bench_work");
    ac::server::DurabilityConfig cfg;
    cfg.dir = scratch.subdir("durable");
    ac::server::DurabilityManager dur(cfg, server->database());
    server->attachDurability(&dur);

    Checker same;
    recoverAndCompare(*server, cfg.dir, same);
    EXPECT(same.ok());

    // State that never reached the journal: recovery cannot match.
    server->database().at(Fleet::id(0)).recordAccept();
    Checker diverged;
    recoverAndCompare(*server, cfg.dir, diverged);
    EXPECT(!diverged.ok());
    server->attachDurability(nullptr);
}

} // namespace

int
main()
{
    jsonWritesLiteralsAsStrings();
    honestWavesPassTheChecks();
    corruptedResponseTripsTheChecks();
    divergentRecoveryTripsTheChecks();
    if (failures == 0)
        std::printf("perfbench tests: all passed\n");
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
