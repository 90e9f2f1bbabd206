/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries.
 */

#ifndef AUTH_BENCH_COMMON_HPP
#define AUTH_BENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace authbench {

/** Wall-clock stopwatch for before/after numbers in EXPERIMENTS.md. */
class WallTimer
{
  public:
    WallTimer() : start(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

/** Print a labeled wall-clock measurement with the execution width. */
inline void
reportWallClock(const std::string &label, double seconds)
{
    std::cout << "[wall-clock] " << label << ": " << seconds
              << " s  (threads: "
              << authenticache::util::ThreadPool::defaultThreadCount()
              << ")\n";
}

/**
 * True when AUTHENTICACHE_QUICK requests a fast smoke run: any
 * non-empty value other than "0" enables quick mode ("1" is the
 * documented spelling). Values outside {"0", "1"} still count as
 * enabled but draw a one-time warning, so a typo like "yes " cannot
 * silently select the multi-minute full run in CI.
 */
inline bool
quickMode()
{
    static const bool enabled = [] {
        const char *env = std::getenv("AUTHENTICACHE_QUICK");
        if (env == nullptr || *env == '\0')
            return false;
        const std::string value(env);
        if (value == "0")
            return false;
        if (value != "1")
            std::cerr << "[bench] AUTHENTICACHE_QUICK=\"" << value
                      << "\" unrecognized; treating as enabled "
                         "(use 1 or 0)\n";
        return true;
    }();
    return enabled;
}

/** Scale a Monte Carlo count down in quick mode. */
inline std::size_t
scaled(std::size_t full, std::size_t quick)
{
    return quickMode() ? quick : full;
}

inline void
banner(const std::string &title, const std::string &paper_reference)
{
    authenticache::util::printBanner(std::cout, title);
    std::cout << "Reproduces: " << paper_reference << "\n";
    if (quickMode())
        std::cout << "(quick mode: reduced Monte Carlo sizes)\n";
    std::cout << "\n";
}

using Clock = std::chrono::steady_clock;

inline double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** The @p p quantile (nearest rank below); sorts @p samples. */
inline double
percentile(std::vector<double> &samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(samples.size() - 1));
    return samples[i];
}

/** One BENCH_*.json benchmark row: throughput plus latency. */
struct Series
{
    std::string name;
    std::string simd;
    double opsPerS = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    std::uint64_t ops = 0;
    /** Per-repeat ops/s; written only when a series is repeated. */
    std::vector<double> repeatOpsPerS;
};

inline void
writeSeries(Json &j, const Series &s)
{
    j.openObject();
    j.field("name", s.name);
    j.field("simd", s.simd);
    j.field("ops", s.ops);
    j.field("ops_per_s", s.opsPerS);
    j.field("p50_ns", s.p50Ns);
    j.field("p99_ns", s.p99Ns);
    if (!s.repeatOpsPerS.empty())
        j.field("repeat_ops_per_s", s.repeatOpsPerS);
    j.closeObject();
}

/**
 * The header every bench_runner / bench_transport_load file opens
 * with: schema, run mode, SIMD detection and dispatch, and the
 * hardware thread count absolute numbers were measured on.
 */
inline void
writeCommonHeader(Json &j, const char *schema, bool quick)
{
    namespace util = authenticache::util;
    j.field("schema", schema);
    j.field("quick", quick);
    j.field("detected_simd",
            util::simdLevelName(util::detectedSimdLevel()));
    j.field("dispatch_simd", util::simdLevelName(util::simdLevel()));
    j.field("hardware_threads",
            util::ThreadPool::defaultThreadCount());
}

} // namespace authbench

#endif // AUTH_BENCH_COMMON_HPP
