/**
 * @file
 * authbench: runs one workload of the serving benchmark and prints a
 * self-describing report line followed by the result line:
 *
 *   authbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR]
 *
 * An untraced run repeats the workload (fresh server, fixed operation
 * count) at least three times and until --seconds have passed, and
 * reports the end-to-end metrics. Goodput is the median over every
 * repetition's ~2000-operation chunks, lat_p99_ms the median of the
 * p99s of 1000-sample chunks, lat_p50_ms the pooled median, and the
 * set-up, memory and recovery figures medians across repetitions. A
 * traced run makes an untraced, a traced and another untraced
 * repetition and reports the per-layer metrics of the traced one,
 * plus the share of goodput the tracing cost.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "json.hpp"
#include "measure.hpp"
#include "metrics.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 9;
/** lat_p99_ms is the median of per-chunk p99s: 10 samples beyond each. */
constexpr std::size_t kLatencyChunk = 1000;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 0;
    int trace = -1;
    std::string workDir = ".bench_work";
};

bool
parse(int argc, char **argv, Args &a)
{
    bool haveSeed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string v = argv[i + 1];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v), haveSeed = true;
            else if (flag == "--seconds")
                a.seconds = std::stoi(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v);
            else if (flag == "--work-dir")
                a.workDir = v;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    const auto &names = workloadNames();
    return argc % 2 == 1 && haveSeed && a.seconds > 0 &&
           (a.trace == 0 || a.trace == 1) &&
           std::find(names.begin(), names.end(), a.workload) != names.end();
}

void
metric(JsonWriter &out, const char *name, const char *unit, double value)
{
    out.object(name).field("value", value).field("unit", unit).end();
}

/** Run the parsed command; throws on a failure that leaves no result. */
void
runBenchmark(const Args &args)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    ScratchDir scratch(args.workDir);
    Env env;
    env.seed = args.seed;
    env.poolWidth = std::max(1u, hw - 1);
    env.scratch = &scratch;
    if (args.trace)
        env.traceOut = args.workDir + "/spans-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".tsv";

    const auto g0 = Clock::now();
    std::unique_ptr<Workload> workload = makeWorkload(args.workload, env);
    const double generatorBuildS = secondsSince(g0);

    Checker check;
    std::vector<RepResult> reps;
    std::vector<double> steal; ///< Hypervisor steal share per repetition.
    auto rep = [&](bool tracing) {
        const CpuTimes cpu0 = cpuTimes();
        RepResult r = workload->rep(check, tracing);
        steal.push_back(stealFraction(cpu0));
        return r;
    };
    RepResult traced;
    const auto r0 = Clock::now();
    if (args.trace) {
        // Untraced repetitions on both sides of the traced one, so
        // the tracing cost is not confused with a warming process.
        reps.push_back(rep(false));
        traced = rep(true);
        reps.push_back(rep(false));
    } else {
        while (static_cast<int>(reps.size()) < kMinReps ||
               (secondsSince(r0) < args.seconds &&
                static_cast<int>(reps.size()) < kMaxReps))
            reps.push_back(rep(false));
    }
    const double runS = secondsSince(r0);

    std::vector<double> goodput, chunks, setup, mem, recover, latencies;
    std::vector<std::vector<double>> series;
    OpTally total;
    bool behind = traced.generatorBehind;
    for (const RepResult &r : reps) {
        goodput.push_back(r.goodputPerS);
        chunks.insert(chunks.end(), r.goodputChunks.begin(),
                      r.goodputChunks.end());
        setup.push_back(r.setupS);
        mem.push_back(r.serverMemMb);
        recover.push_back(r.recoverS);
        latencies.insert(latencies.end(), r.latenciesMs.begin(),
                         r.latenciesMs.end());
        series.push_back(r.latenciesMs);
        total.attempted += r.tally.attempted;
        total.failed += r.tally.failed;
        behind = behind || r.generatorBehind;
    }
    if (args.trace) {
        total.attempted += traced.tally.attempted;
        total.failed += traced.tally.failed;
    }
    const std::size_t samples = latencies.size();
    const double p50 = percentile(latencies, 0.50);
    const double p99 = chunkedPercentile(series, kLatencyChunk, 0.99);
    const double pooledP99 = percentile(latencies, 0.99);
    const bool correct = check.ok() && total.failed == 0 && !behind &&
                         total.attempted > 0;

    // Report line: everything needed to interpret the numbers.
    JsonWriter report;
    report.field("schema", "authbench-report-v1")
        .field("workload", args.workload)
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace == 1)
        .field("hardware_threads", hw)
        .field("pool_width", env.poolWidth)
        .field("simd", authenticache::util::simdLevelName(
                           authenticache::util::simdLevel()))
        .field("work_dir_fs", filesystemType(scratch.path()))
        .field("repetitions", reps.size() + (args.trace ? 1 : 0))
        .field("generator_build_s", generatorBuildS)
        .field("run_s", runS);
    report.object("shape");
    workload->describe(report);
    report.end();
    report.object("end_to_end");
    report.object("goodput_per_s")
        .field("value", median(chunks))
        .field("unit", "1/s")
        .field("samples", chunks.size())
        .end();
    report.object("lat_p50_ms")
        .field("value", p50)
        .field("unit", "ms")
        .field("samples", samples)
        .end();
    report.object("lat_p99_ms")
        .field("value", p99)
        .field("unit", "ms")
        .field("samples", samples)
        .field("chunk", kLatencyChunk)
        .field("pooled_p99", pooledP99)
        .end();
    report.object("fail_frac")
        .field("value", total.attempted ? static_cast<double>(total.failed) /
                                              static_cast<double>(total.attempted)
                                        : 1.0)
        .field("unit", "ratio")
        .field("samples", total.attempted)
        .end();
    report.object("setup_s")
        .field("value", median(setup))
        .field("unit", "s")
        .field("samples", setup.size())
        .end();
    report.object("server_mem_mb")
        .field("value", median(mem))
        .field("unit", "MB")
        .field("samples", mem.size())
        .end();
    report.object("recover_s")
        .field("value", median(recover))
        .field("unit", "s")
        .field("samples", recover.size())
        .end();
    report.end();
    report.object("checks")
        .field("passed", check.ok())
        .field("failures", check.failures())
        .field("generator_fell_behind", behind);
    report.array("examples");
    for (const std::string &e : check.examples())
        report.item(e);
    report.end().end();
    report.array("goodput_per_rep");
    for (double g : goodput)
        report.item(g);
    report.end().array("setup_s_per_rep");
    for (double v : setup)
        report.item(v);
    report.end().array("recover_s_per_rep");
    for (double v : recover)
        report.item(v);
    report.end().array("cpu_steal_frac_per_rep");
    for (double v : steal)
        report.item(v);
    report.end();
    report.object("last_repetition");
    for (const auto &[k, v] : (args.trace ? traced : reps.back()).info)
        report.field(k, v);
    report.end();
    std::cout << report.finish() << "\n";

    // Result line.
    JsonWriter result;
    result.field("correct", correct)
        .field("attempted", total.attempted)
        .field("failed", total.failed);
    result.object("metrics");
    if (args.trace) {
        const double base = median(chunks);
        traced.layers["trace.overhead_frac"] =
            base > 0 ? 1.0 - median(traced.goodputChunks) / base : 0.0;
        for (const MetricDef &m : kPerLayer)
            metric(result, m.name, m.unit, traced.layers[m.name]);
    } else {
        const double values[kEndToEnd.size()] = {
            median(chunks), p50, p99, median(setup), median(mem),
            median(recover)};
        for (std::size_t i = 0; i < kEndToEnd.size(); ++i)
            metric(result, kEndToEnd[i].name, kEndToEnd[i].unit, values[i]);
    }
    result.end();
    std::cout << result.finish() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parse(argc, argv, args)) {
        std::cerr << "usage: authbench --workload "
                     "wire_auth_small|batch_auth_4mb|durable_mixed "
                     "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n";
        return 2;
    }
    try {
        runBenchmark(args);
        return 0;
    } catch (const std::exception &e) {
        // Unwinding removes the run's scratch directory.
        std::cerr << "authbench: " << e.what() << "\n";
        return 1;
    }
}
