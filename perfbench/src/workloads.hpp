/**
 * @file
 * The three workloads. Each repetition builds a fresh server from
 * the same seed and runs a fixed number of operations, so the
 * consumed-pair history, the snapshot size and the memory it
 * measures are the same on every commit.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "json.hpp"
#include "loadgen.hpp"
#include "measure.hpp"

namespace perfbench {

struct Env
{
    std::uint64_t seed = 0;
    unsigned poolWidth = 1; ///< handleBatch pool width (pump included).
    ScratchDir *scratch = nullptr;
    std::string traceOut; ///< Span dump path for traced runs ("" = none).
};

/** What one repetition measured. */
struct RepResult
{
    double setupS = 0.0;
    double goodputPerS = 0.0; ///< Over the whole timed phase.
    /** Goodput of consecutive ~2000-operation chunks of the phase. */
    std::vector<double> goodputChunks;
    double serverMemMb = 0.0;
    double recoverS = 0.0;
    std::vector<double> latenciesMs;
    OpTally tally;
    /** Per-layer metrics; filled by a traced repetition only. */
    std::map<std::string, double> layers;
    /** Descriptive counts for the report (verdict mix, phases). */
    std::map<std::string, double> info;
    /** The generator fell behind its schedule: the run is invalid. */
    bool generatorBehind = false;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One repetition: set up, run the fixed operation count, check. */
    virtual RepResult rep(Checker &check, bool traced) = 0;

    /** Record the workload's shape (fleet, plane, counts, settings). */
    virtual void describe(JsonWriter &out) const = 0;
};

/** The names makeWorkload accepts, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Builds the workload's generator tables; throws on unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Env &env);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
