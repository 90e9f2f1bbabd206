/**
 * @file
 * Perf-trajectory runner: machine-readable benchmark results for the
 * regression gate (EXPERIMENTS.md "Perf trajectory").
 *
 * Emits two JSON files (default: current directory):
 *
 *  - BENCH_hotpath.json -- microkernel numbers: the nearest-error
 *    scan over a 4MB-cache plane at every supported SIMD width, the
 *    SECDED batch encode/decode kernels, and the server's indexed
 *    challenge evaluation. Per-op p50/p99 latency plus ops/s, and
 *    derived hardware-independent ratios (SIMD speedup over scalar).
 *
 *  - BENCH_server.json -- end-to-end batch front-end throughput
 *    (frames/s, per-batch p50/p99) at several thread counts, with
 *    durability off and on, plus derived ratios (scaling, journaling
 *    overhead).
 *
 *  tools/bench_compare.py diffs a fresh run against the checked-in
 *  baselines and fails on regression; CI runs it in --ratios-only
 *  mode so the gate is hardware-independent.
 *
 * Flags: --out-dir <dir>, --hotpath-only, --server-only, --smoke
 * (or AUTHENTICACHE_QUICK=1) for a fast CI run.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/challenge.hpp"
#include "core/error_index.hpp"
#include "core/nearest_scan.hpp"
#include "core/remap.hpp"
#include "ecc/secded.hpp"
#include "mc/mapgen.hpp"
#include "server/durability.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

using namespace authenticache;

namespace {

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** One benchmark row: throughput plus latency percentiles. */
struct Series
{
    std::string name;
    std::string simd;
    double opsPerS = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    std::uint64_t ops = 0;
};

double
percentile(std::vector<double> &samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(samples.size() - 1));
    return samples[i];
}

Series
makeSeries(const std::string &name, const std::string &simd,
           std::uint64_t ops_per_sample, std::vector<double> samples)
{
    Series s;
    s.name = name;
    s.simd = simd;
    s.ops = ops_per_sample * samples.size();
    double total_ns = 0.0;
    for (double v : samples)
        total_ns += v;
    s.opsPerS = total_ns > 0.0
                    ? static_cast<double>(s.ops) / (total_ns * 1e-9)
                    : 0.0;
    // Percentiles are per *sample*; divide by ops_per_sample for a
    // per-op figure where a sample batches many ops.
    s.p50Ns = percentile(samples, 0.50) /
              static_cast<double>(ops_per_sample);
    s.p99Ns = percentile(samples, 0.99) /
              static_cast<double>(ops_per_sample);
    return s;
}

/** Minimal JSON writer (fixed field order, no external deps). */
class Json
{
  public:
    explicit Json(std::ostream &os_) : os(os_)
    {
        os.precision(12);
    }

    void
    open()
    {
        os << "{";
        firsts.push_back(true);
    }
    void
    close()
    {
        firsts.pop_back();
        os << "\n}\n";
    }

    void
    field(const std::string &key, const std::string &value)
    {
        pre();
        os << '"' << key << "\": \"" << value << '"';
    }
    void
    field(const std::string &key, const char *value)
    {
        field(key, std::string(value));
    }
    void
    field(const std::string &key, double value)
    {
        pre();
        os << '"' << key << "\": " << value;
    }
    void
    field(const std::string &key, std::uint64_t value)
    {
        pre();
        os << '"' << key << "\": " << value;
    }
    void
    field(const std::string &key, bool value)
    {
        pre();
        os << '"' << key << "\": " << (value ? "true" : "false");
    }

    void
    openArray(const std::string &key)
    {
        pre();
        os << '"' << key << "\": [";
        firsts.push_back(true);
    }
    void
    closeArray()
    {
        firsts.pop_back();
        os << "\n" << indent() << "  ]";
    }
    void
    openObject(const std::string &key = "")
    {
        pre();
        if (!key.empty())
            os << '"' << key << "\": ";
        os << "{";
        firsts.push_back(true);
    }
    void
    closeObject()
    {
        firsts.pop_back();
        os << "\n" << indent() << "  }";
    }

  private:
    void
    pre()
    {
        if (!firsts.back())
            os << ",";
        firsts.back() = false;
        os << "\n" << indent() << "  ";
    }
    std::string
    indent() const
    {
        return std::string(2 * (firsts.size() - 1), ' ');
    }

    std::ostream &os;
    std::vector<bool> firsts; ///< "next element is first" per depth.
};

void
writeSeries(Json &j, const Series &s)
{
    j.openObject();
    j.field("name", s.name);
    j.field("simd", s.simd);
    j.field("ops", s.ops);
    j.field("ops_per_s", s.opsPerS);
    j.field("p50_ns", s.p50Ns);
    j.field("p99_ns", s.p99Ns);
    j.closeObject();
}

// ---------------------------------------------------------------
// Hot-path microkernels.
// ---------------------------------------------------------------

struct HotpathResult
{
    std::vector<Series> series;
    std::map<std::string, double> derived;
};

double
opsRate(const std::vector<Series> &all, const std::string &name,
        const std::string &simd)
{
    for (const auto &s : all)
        if (s.name == name && s.simd == simd)
            return s.opsPerS;
    return 0.0;
}

HotpathResult
runHotpath(bool quick)
{
    HotpathResult out;
    util::Rng rng(0xBE7C);

    // Nearest-error scan on a 4MB cache (8192 sets x 8 ways): the
    // acceptance plane for the SIMD speedup ratio.
    const core::CacheGeometry geom(4 * 1024 * 1024);
    const std::size_t errors = 4096;
    const std::size_t queries = quick ? 2000 : 20000;
    auto plane = mc::randomPlane(geom, errors, rng);

    std::vector<sim::LinePoint> qpts;
    qpts.reserve(queries);
    for (std::size_t i = 0; i < queries; ++i)
        qpts.push_back(geom.pointOf(rng.nextBelow(geom.lines())));

    std::uint64_t checksum_ref = 0;
    for (util::SimdLevel level : util::supportedSimdLevels()) {
        std::vector<double> samples;
        samples.reserve(queries);
        std::uint64_t checksum = 0;
        for (const auto &q : qpts) {
            auto t0 = Clock::now();
            auto r = core::nearestErrorScan(plane, q, level);
            samples.push_back(nsSince(t0));
            checksum += r.distance + r.at.set + r.at.way;
        }
        if (level == util::SimdLevel::Scalar)
            checksum_ref = checksum;
        else if (checksum != checksum_ref) {
            std::cerr << "FAIL: nearest scan diverged at "
                      << util::simdLevelName(level) << "\n";
            std::exit(1);
        }
        out.series.push_back(
            makeSeries("nearest_scan_4mb",
                       util::simdLevelName(level), 1,
                       std::move(samples)));
    }

    // SECDED batch kernels: encode + decode over a word buffer.
    const std::size_t words = quick ? (1u << 14) : (1u << 16);
    const std::size_t reps = quick ? 8 : 24;
    std::vector<std::uint64_t> data(words);
    for (auto &w : data)
        w = rng.next();
    std::vector<std::uint32_t> check(words);
    std::vector<ecc::DecodeResult> dec(words);
    ecc::SecdedCodec codec(64);

    for (util::SimdLevel level : util::supportedSimdLevels()) {
        std::vector<double> enc_samples, dec_samples;
        for (std::size_t r = 0; r < reps; ++r) {
            auto t0 = Clock::now();
            codec.encodeBatch(data.data(), check.data(), words,
                              level);
            enc_samples.push_back(nsSince(t0));
            t0 = Clock::now();
            codec.decodeBatch(data.data(), check.data(), dec.data(),
                              words, level);
            dec_samples.push_back(nsSince(t0));
        }
        out.series.push_back(
            makeSeries("secded_encode_batch",
                       util::simdLevelName(level), words,
                       std::move(enc_samples)));
        out.series.push_back(
            makeSeries("secded_decode_batch",
                       util::simdLevelName(level), words,
                       std::move(dec_samples)));
    }

    // Indexed challenge evaluation (the server's expected-response
    // path): 64-bit challenges against an indexed map.
    const core::VddMv level_mv = 700.0;
    core::ErrorMap map = mc::randomErrorMap(geom, level_mv, 60, rng);
    auto indexes = core::buildErrorIndexes(map);
    core::EvalScratch scratch;
    const std::size_t evals = quick ? 200 : 2000;
    std::vector<core::Challenge> challenges;
    challenges.reserve(evals);
    for (std::size_t i = 0; i < evals; ++i)
        challenges.push_back(
            core::randomChallenge(geom, level_mv, 64, rng));

    for (util::SimdLevel level : util::supportedSimdLevels()) {
        std::vector<double> samples;
        samples.reserve(evals);
        for (const auto &ch : challenges) {
            auto t0 = Clock::now();
            auto resp =
                core::evaluateIndexed(indexes, ch, scratch, level);
            samples.push_back(nsSince(t0));
            (void)resp;
        }
        out.series.push_back(
            makeSeries("evaluate_indexed_64bit",
                       util::simdLevelName(level), 1,
                       std::move(samples)));
    }

    const std::string widest =
        util::simdLevelName(util::detectedSimdLevel());
    auto ratio = [&](const std::string &name) {
        double scalar = opsRate(out.series, name, "scalar");
        double wide = opsRate(out.series, name, widest);
        return scalar > 0.0 ? wide / scalar : 0.0;
    };
    out.derived["nearest_scan_simd_speedup"] =
        ratio("nearest_scan_4mb");
    out.derived["secded_encode_simd_speedup"] =
        ratio("secded_encode_batch");
    out.derived["secded_decode_simd_speedup"] =
        ratio("secded_decode_batch");
    out.derived["evaluate_indexed_simd_speedup"] =
        ratio("evaluate_indexed_64bit");
    return out;
}

// ---------------------------------------------------------------
// Server batch front end.
// ---------------------------------------------------------------

constexpr core::VddMv kLevel = 700.0;
constexpr std::uint64_t kServerSeed = 0x7B40;

struct Flood
{
    server::ServerConfig cfg;
    server::AuthenticationServer srv;
    std::vector<std::uint64_t> ids;
    std::vector<std::unique_ptr<protocol::EncodingSink>> ends;
    std::optional<server::DurabilityManager> dur;

    explicit Flood(std::size_t n_devices,
                   const std::string &durable_dir = "")
        : cfg([] {
              server::ServerConfig c;
              c.challengeBits = 64;
              c.verifier.pIntra = 0.08;
              c.maxPendingSessions = 1 << 20;
              c.sessionShards = 16;
              return c;
          }()),
          srv(cfg, kServerSeed)
    {
        core::CacheGeometry geom(256 * 1024);
        for (std::size_t i = 0; i < n_devices; ++i) {
            std::uint64_t id = 1000 + i;
            util::Rng mr = util::Rng::forStream(0xBE9C, id);
            srv.database().enroll(server::DeviceRecord(
                id, mc::randomErrorMap(geom, kLevel, 60, mr),
                {kLevel}, {}));
            ids.push_back(id);
            ends.push_back(std::make_unique<protocol::EncodingSink>());
        }
        if (!durable_dir.empty()) {
            dur.emplace(
                server::DurabilityConfig{durable_dir, 4096},
                srv.database());
            srv.attachDurability(&*dur);
        }
    }
};

util::BitVec
honest(const server::DeviceRecord &rec, const core::Challenge &ch)
{
    core::LogicalRemap remap(rec.mapKey(),
                             rec.physicalMap().geometry());
    return core::evaluate(remap.mapErrorMap(rec.physicalMap()), ch);
}

struct ServerRun
{
    Series series;
    std::uint64_t accepted = 0;
};

ServerRun
runServer(std::size_t n_devices, std::size_t rounds, unsigned threads,
          bool durable, const std::string &label)
{
    std::string dur_dir;
    if (durable) {
        dur_dir = (std::filesystem::temp_directory_path() /
                   "authbench_runner_dur")
                      .string();
        std::filesystem::remove_all(dur_dir);
        std::filesystem::create_directories(dur_dir);
    }
    Flood flood(n_devices, dur_dir);
    util::ThreadPool pool(threads);

    std::vector<double> batch_ns;
    std::uint64_t frames = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        std::vector<server::Frame> batch;
        batch.reserve(n_devices);
        for (std::size_t i = 0; i < n_devices; ++i)
            batch.push_back(server::Frame{
                protocol::encodeMessage(
                    protocol::AuthRequest{flood.ids[i]}),
                flood.ends[i].get()});
        auto t0 = Clock::now();
        flood.srv.handleBatch(batch, pool);
        batch_ns.push_back(nsSince(t0));
        frames += batch.size();

        batch.clear();
        for (std::size_t i = 0; i < n_devices; ++i) {
            const auto &replies = flood.ends[i]->frames;
            if (replies.empty())
                continue;
            auto msg = protocol::decodeMessage(replies.front());
            auto *ch = std::get_if<protocol::ChallengeMsg>(&msg);
            if (!ch)
                continue;
            const auto &rec =
                flood.srv.database().at(flood.ids[i]);
            batch.push_back(server::Frame{
                protocol::encodeMessage(protocol::ResponseMsg{
                    ch->nonce, honest(rec, ch->challenge)}),
                flood.ends[i].get()});
        }
        t0 = Clock::now();
        flood.srv.handleBatch(batch, pool);
        batch_ns.push_back(nsSince(t0));
        frames += batch.size();
        for (auto &end : flood.ends)
            end->frames.clear();
    }

    ServerRun out;
    const std::uint64_t per_batch = frames / batch_ns.size();
    out.series = makeSeries(label, util::simdLevelName(
                                       util::simdLevel()),
                            per_batch, std::move(batch_ns));
    // ops == frames exactly (per_batch rounding would distort it).
    out.series.ops = frames;
    for (auto id : flood.ids)
        out.accepted += flood.srv.database().at(id).accepted();
    if (!dur_dir.empty())
        std::filesystem::remove_all(dur_dir);
    return out;
}

struct ServerResult
{
    std::vector<Series> series;
    std::vector<std::uint64_t> threadCounts;
    std::map<std::string, double> derived;
};

ServerResult
runServerSuite(bool quick)
{
    ServerResult out;
    const std::size_t devices = quick ? 32 : 192;
    const std::size_t rounds = quick ? 2 : 5;
    const unsigned hw = util::ThreadPool::defaultThreadCount();
    std::vector<unsigned> widths{1, 4};
    if (hw > 4)
        widths.push_back(hw);

    std::uint64_t accepted_ref = 0;
    double rate_1t = 0.0, rate_hw = 0.0, durable_hw = 0.0;
    for (unsigned w : widths) {
        out.threadCounts.push_back(w);
        auto plain =
            runServer(devices, rounds, w, false,
                      "server_batch_t" + std::to_string(w));
        auto durable =
            runServer(devices, rounds, w, true,
                      "server_batch_durable_t" + std::to_string(w));
        if (w == widths.front())
            accepted_ref = plain.accepted;
        if (plain.accepted != accepted_ref ||
            durable.accepted != accepted_ref) {
            std::cerr << "FAIL: accepted count diverged at " << w
                      << " threads\n";
            std::exit(1);
        }
        if (w == 1)
            rate_1t = plain.series.opsPerS;
        rate_hw = plain.series.opsPerS;
        durable_hw = durable.series.opsPerS;
        out.series.push_back(std::move(plain.series));
        out.series.push_back(std::move(durable.series));
    }
    out.derived["scaling_max_threads_vs_1"] =
        rate_1t > 0.0 ? rate_hw / rate_1t : 0.0;
    out.derived["durable_overhead_ratio"] =
        durable_hw > 0.0 ? rate_hw / durable_hw : 0.0;
    return out;
}

// ---------------------------------------------------------------
// Output.
// ---------------------------------------------------------------

void
writeCommonHeader(Json &j, const std::string &schema, bool quick)
{
    j.field("schema", schema);
    j.field("quick", quick);
    j.field("detected_simd",
            std::string(
                util::simdLevelName(util::detectedSimdLevel())));
    j.field("dispatch_simd",
            std::string(util::simdLevelName(util::simdLevel())));
    j.field("hardware_threads",
            std::uint64_t(util::ThreadPool::defaultThreadCount()));
}

void
writeHotpath(const std::string &path, const HotpathResult &r,
             bool quick)
{
    std::ofstream f(path);
    Json j(f);
    j.open();
    writeCommonHeader(j, "authenticache-bench-hotpath-v1", quick);
    j.openArray("benchmarks");
    for (const auto &s : r.series)
        writeSeries(j, s);
    j.closeArray();
    j.openObject("derived");
    for (const auto &[k, v] : r.derived)
        j.field(k, v);
    j.closeObject();
    j.openObject("floors");
    // The acceptance floor the compare script enforces on every run:
    // the widest nearest-error scan must hold >= 2x over scalar.
    j.field("nearest_scan_simd_speedup", 2.0);
    j.closeObject();
    j.close();
}

void
writeServer(const std::string &path, const ServerResult &r,
            bool quick)
{
    std::ofstream f(path);
    Json j(f);
    j.open();
    writeCommonHeader(j, "authenticache-bench-server-v1", quick);
    j.openArray("thread_counts");
    for (std::uint64_t t : r.threadCounts) {
        j.openObject();
        j.field("threads", t);
        j.closeObject();
    }
    j.closeArray();
    j.openArray("benchmarks");
    for (const auto &s : r.series)
        writeSeries(j, s);
    j.closeArray();
    j.openObject("derived");
    for (const auto &[k, v] : r.derived)
        j.field(k, v);
    j.closeObject();
    j.close();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_dir = ".";
    bool hotpath = true, server = true, smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out-dir") && i + 1 < argc)
            out_dir = argv[++i];
        else if (!std::strcmp(argv[i], "--hotpath-only"))
            server = false;
        else if (!std::strcmp(argv[i], "--server-only"))
            hotpath = false;
        else if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
        else {
            std::cerr << "usage: bench_runner [--out-dir D] "
                         "[--hotpath-only|--server-only] [--smoke]\n";
            return 2;
        }
    }
    if (authbench::quickMode())
        smoke = true;

    authbench::banner("Perf-trajectory runner (BENCH_*.json)",
                      "regression gate inputs; see EXPERIMENTS.md "
                      "'Perf trajectory'");

    if (hotpath) {
        authbench::WallTimer t;
        auto r = runHotpath(smoke);
        const std::string path = out_dir + "/BENCH_hotpath.json";
        writeHotpath(path, r, smoke);
        std::cout << "wrote " << path << " ("
                  << r.series.size() << " series, "
                  << t.seconds() << " s)\n";
        for (const auto &[k, v] : r.derived)
            std::cout << "  " << k << ": " << v << "\n";
    }
    if (server) {
        authbench::WallTimer t;
        auto r = runServerSuite(smoke);
        const std::string path = out_dir + "/BENCH_server.json";
        writeServer(path, r, smoke);
        std::cout << "wrote " << path << " ("
                  << r.series.size() << " series, "
                  << t.seconds() << " s)\n";
        for (const auto &[k, v] : r.derived)
            std::cout << "  " << k << ": " << v << "\n";
    }
    return 0;
}
