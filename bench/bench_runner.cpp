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
 *    Ungated primitive series follow at the dispatch width: SECDED
 *    and BCH codecs, SipHash, SHA-256, the Feistel map, nearest-error
 *    search (brute, indexed, spiral), index build, challenge
 *    evaluation, remap, line self-test, serialization and Hamming
 *    distance.
 *
 *  - BENCH_server.json -- end-to-end batch front-end throughput
 *    (frames/s, per-batch p50/p99) at several thread counts, with
 *    durability off and on, plus derived ratios (scaling, durable
 *    retention). Each series runs an untimed warm-up wave, then three
 *    timed repeats; ops_per_s is the median repeat. The run also
 *    prints the frames/s table per pool width.
 *
 *  tools/bench_compare.py diffs a fresh run against the checked-in
 *  baselines and fails on regression; CI runs it in --ratios-only
 *  mode so the gate is hardware-independent.
 *
 * Flags: --out-dir <dir>, --hotpath-only, --server-only, --smoke
 * (or AUTHENTICACHE_QUICK=1) for a fast CI run.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/challenge.hpp"
#include "core/error_index.hpp"
#include "core/nearest.hpp"
#include "core/nearest_scan.hpp"
#include "core/remap.hpp"
#include "crypto/feistel.hpp"
#include "crypto/sha256.hpp"
#include "crypto/siphash.hpp"
#include "ecc/bch.hpp"
#include "ecc/secded.hpp"
#include "mc/mapgen.hpp"
#include "server/durability.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"
#include "test_tmpdir.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

using namespace authenticache;

namespace {

using authbench::Clock;
using authbench::nsSince;
using authbench::Series;

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
    s.p50Ns = authbench::percentile(samples, 0.50) /
              static_cast<double>(ops_per_sample);
    s.p99Ns = authbench::percentile(samples, 0.99) /
              static_cast<double>(ops_per_sample);
    return s;
}

// ---------------------------------------------------------------
// Hot-path microkernels.
// ---------------------------------------------------------------

struct HotpathResult
{
    std::vector<Series> series;
    std::map<std::string, double> derived;
    /** Every primitive's result folded in; printed, so none is dead. */
    std::uint64_t checksum = 0;
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

/**
 * Fixed-iteration timing: @p samples samples of @p iters back-to-back
 * calls of @p op each, every result added into @p checksum. Size
 * @p iters so one sample runs for tens of microseconds, far above the
 * cost of the two clock reads around it.
 */
template <typename Op>
Series
timeOp(const std::string &name, std::size_t samples, std::size_t iters,
       std::uint64_t &checksum, Op &&op)
{
    std::vector<double> ns;
    ns.reserve(samples);
    for (std::size_t s = 0; s < samples; ++s) {
        auto t0 = Clock::now();
        for (std::size_t i = 0; i < iters; ++i)
            checksum += op(i);
        ns.push_back(nsSince(t0));
    }
    return makeSeries(name, util::simdLevelName(util::simdLevel()),
                      iters, std::move(ns));
}

std::uint64_t
fold(const core::NearestResult &r)
{
    return r.distance + r.at.set + r.at.way;
}

/**
 * Ungated per-call costs of the primitives under the figure benches
 * (EXPERIMENTS.md "Engine wall-clock" reads the nearest-error rows).
 * Inputs vary with the iteration index wherever a call is cheap
 * enough that a loop-invariant argument could be hoisted.
 */
void
runPrimitives(HotpathResult &out, bool quick)
{
    const std::size_t samples = quick ? 30 : 300;
    std::uint64_t &sum = out.checksum;
    auto add = [&](Series s) { out.series.push_back(std::move(s)); };

    ecc::SecdedCodec secded(64);
    std::vector<std::uint64_t> words(256);
    std::vector<std::uint32_t> checks(256);
    util::Rng wr(1);
    for (std::size_t k = 0; k < words.size(); ++k) {
        words[k] = wr.next();
        checks[k] = secded.encode(words[k]);
    }
    add(timeOp("secded_encode", samples, 4096, sum,
               [&](std::size_t i) { return secded.encode(words[0] + i); }));
    add(timeOp("secded_decode_clean", samples, 4096, sum,
               [&](std::size_t i) {
                   return secded.decode(words[i & 255], checks[i & 255])
                       .data;
               }));
    add(timeOp("secded_decode_correct", samples, 4096, sum,
               [&](std::size_t i) {
                   const std::size_t k = i & 255;
                   return secded
                       .decode(words[k] ^ (1ull << (i % 64)), checks[k])
                       .data;
               }));

    ecc::BchCode bch(7, 10);
    util::Rng br(77);
    util::BitVec message(bch.k());
    for (std::size_t i = 0; i < message.size(); ++i)
        message.set(i, br.nextBool());
    add(timeOp("bch_encode", samples, 8, sum, [&](std::size_t) {
        return bch.encode(message).popcount();
    }));
    const util::BitVec codeword = bch.encode(message);
    for (std::size_t errs : {0, 5, 10}) {
        util::BitVec corrupted = codeword;
        for (auto pos : br.sampleDistinct(bch.n(), errs))
            corrupted.flip(pos);
        add(timeOp("bch_decode_e" + std::to_string(errs), samples,
                   errs == 0 ? 4 : 2, sum, [&](std::size_t) {
                       auto d = bch.decode(corrupted);
                       return d ? d->popcount() : 0;
                   }));
    }

    const crypto::SipHashKey sip{1, 2};
    add(timeOp("siphash24", samples, 2048, sum, [&](std::size_t i) {
        return crypto::siphash24(sip, 42 + i);
    }));
    const std::vector<std::uint8_t> kib(1024, 0xAB);
    add(timeOp("sha256_1kib", samples, 4, sum, [&](std::size_t) {
        return std::uint64_t(crypto::Sha256::hash(kib)[0]);
    }));
    const crypto::FeistelPermutation perm(crypto::SipHashKey{3, 4},
                                          65536ull * 8);
    add(timeOp("feistel_map", samples, 128, sum, [&](std::size_t i) {
        return perm.map(i % perm.domain());
    }));

    // Nearest-error search on a 4MB plane: brute force scales with
    // the error count, the index stays flat.
    const core::CacheGeometry geom(4ull * 1024 * 1024);
    util::Rng qr(5);
    std::vector<sim::LinePoint> queries;
    for (std::size_t i = 0; i < 64; ++i)
        queries.push_back(geom.pointOf(qr.nextBelow(geom.lines())));
    auto query = [&](std::size_t i) { return queries[i & 63]; };
    for (std::size_t errs : {20, 100, 500, 2000}) {
        util::Rng pr(5);
        const auto plane = mc::randomPlane(geom, errs, pr);
        const core::ErrorIndex index(plane);
        const std::string e = "_e" + std::to_string(errs);
        add(timeOp("nearest_brute" + e, samples,
                   std::max<std::size_t>(8, 16384 / errs), sum,
                   [&](std::size_t i) {
                       return fold(core::nearestErrorBrute(plane, query(i)));
                   }));
        add(timeOp("nearest_indexed" + e, samples, 256, sum,
                   [&](std::size_t i) {
                       return fold(index.nearest(query(i)));
                   }));
        if (errs == 100 || errs == 2000)
            add(timeOp("error_index_build" + e, samples,
                       errs == 100 ? 32 : 4, sum, [&](std::size_t) {
                           return core::ErrorIndex(plane).errorCount();
                       }));
        if (errs == 20 || errs == 100) {
            const std::function<bool(const sim::LinePoint &)> probe =
                [&](const sim::LinePoint &cell) {
                    return plane.contains(cell);
                };
            add(timeOp("spiral_search" + e, samples, 16, sum,
                       [&](std::size_t i) {
                           return fold(core::spiralSearch(
                               geom, query(i), core::maxSearchRadius(geom),
                               probe));
                       }));
        }
    }

    util::Rng er(7);
    const auto map = mc::randomErrorMap(geom, 700, 100, er);
    const auto challenge = core::randomChallenge(geom, 700, 512, er);
    add(timeOp("evaluate_512bit", samples, 1, sum, [&](std::size_t) {
        return core::evaluate(map, challenge).popcount();
    }));

    const core::LogicalRemap remap(
        crypto::Key256::fromDigest(
            crypto::Sha256::hash(std::string("bench"))),
        geom);
    sum += remap.map(sim::LinePoint{100, 2}, 700).set; // Warm the cache.
    add(timeOp("logical_remap_map", samples, 256, sum,
               [&](std::size_t i) {
                   auto p = remap.map(
                       sim::LinePoint{std::uint32_t(i % geom.sets()),
                                      std::uint32_t(i % geom.ways())},
                       700);
                   return std::uint64_t(p.set) + p.way;
               }));

    sim::ChipConfig chip_cfg;
    chip_cfg.cacheBytes = 1024 * 1024;
    sim::SimulatedChip chip(chip_cfg, 8);
    chip.setVddMv(chip.vminField().vcorrMv() - 30.0);
    add(timeOp("line_self_test", samples, 256, sum, [&](std::size_t) {
        auto r = chip.selfTest().testLine(sim::LinePoint{100, 2}, 1);
        return std::uint64_t(r.triggered) + r.attemptsUsed;
    }));

    util::Rng mr(9);
    protocol::ChallengeMsg msg;
    msg.nonce = 1;
    msg.challenge = core::randomChallenge(geom, 700, 128, mr);
    add(timeOp("message_roundtrip", samples, 2, sum, [&](std::size_t) {
        auto frame = protocol::encodeMessage(msg);
        return frame.size() + protocol::decodeMessage(frame).index();
    }));

    util::Rng hr(10);
    util::BitVec a(512), b(512);
    for (std::size_t i = 0; i < 512; ++i) {
        a.set(i, hr.nextBool());
        b.set(i, hr.nextBool());
    }
    add(timeOp("bitvec_hamming_512", samples, 1024, sum,
               [&](std::size_t) { return a.hammingDistance(b); }));
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
    runPrimitives(out, quick);
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

/**
 * One request+response wave: every device sends an AuthRequest, then
 * answers its challenge honestly. Only the two handleBatch calls are
 * timed (appended to @p batch_ns when non-null); returns the frame
 * count.
 */
std::uint64_t
runWave(Flood &flood, util::ThreadPool &pool,
        std::vector<double> *batch_ns)
{
    const std::size_t n = flood.ids.size();
    std::uint64_t frames = 0;
    auto timed = [&](std::vector<server::Frame> &batch) {
        auto t0 = Clock::now();
        flood.srv.handleBatch(batch, pool);
        if (batch_ns)
            batch_ns->push_back(nsSince(t0));
        frames += batch.size();
    };

    std::vector<server::Frame> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        batch.push_back(server::Frame{
            protocol::encodeMessage(protocol::AuthRequest{flood.ids[i]}),
            flood.ends[i].get()});
    timed(batch);

    batch.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const auto &replies = flood.ends[i]->frames;
        if (replies.empty())
            continue;
        auto msg = protocol::decodeMessage(replies.front());
        auto *ch = std::get_if<protocol::ChallengeMsg>(&msg);
        if (!ch)
            continue;
        const auto &rec = flood.srv.database().at(flood.ids[i]);
        batch.push_back(server::Frame{
            protocol::encodeMessage(protocol::ResponseMsg{
                ch->nonce, honest(rec, ch->challenge)}),
            flood.ends[i].get()});
    }
    timed(batch);
    // Drain decisions so queues stay flat across waves.
    for (auto &end : flood.ends)
        end->frames.clear();
    return frames;
}

constexpr std::size_t kServerRepeats = 3;

struct ServerRun
{
    Series series;
    std::uint64_t accepted = 0;
};

/**
 * One server series: an untimed warm-up wave, then kServerRepeats
 * timed repeats of @p rounds waves each. ops_per_s is the median
 * repeat's rate; p50/p99 pool every timed batch of every repeat. A
 * durable run journals into a fresh unique directory.
 */
ServerRun
runServer(std::size_t n_devices, std::size_t rounds, unsigned threads,
          bool durable, const std::string &label)
{
    std::optional<testutil::TempDir> dur_dir;
    if (durable)
        dur_dir.emplace("authbench-dur");
    Flood flood(n_devices, dur_dir ? dur_dir->str() : "");
    util::ThreadPool pool(threads);

    runWave(flood, pool, nullptr);
    std::vector<double> batch_ns, rates;
    std::uint64_t frames = 0;
    for (std::size_t rep = 0; rep < kServerRepeats; ++rep) {
        std::vector<double> rep_ns;
        std::uint64_t rep_frames = 0;
        for (std::size_t r = 0; r < rounds; ++r)
            rep_frames += runWave(flood, pool, &rep_ns);
        double rep_total = 0.0;
        for (double v : rep_ns)
            rep_total += v;
        rates.push_back(rep_total > 0.0
                            ? static_cast<double>(rep_frames) /
                                  (rep_total * 1e-9)
                            : 0.0);
        frames += rep_frames;
        batch_ns.insert(batch_ns.end(), rep_ns.begin(), rep_ns.end());
    }

    ServerRun out;
    const std::uint64_t per_batch = frames / batch_ns.size();
    out.series = makeSeries(label, util::simdLevelName(util::simdLevel()),
                            per_batch, std::move(batch_ns));
    // ops == frames exactly (per_batch rounding would distort it).
    out.series.ops = frames;
    out.series.repeatOpsPerS = rates;
    std::sort(rates.begin(), rates.end());
    out.series.opsPerS = rates[kServerRepeats / 2];
    for (auto id : flood.ids)
        out.accepted += flood.srv.database().at(id).accepted();
    return out;
}

struct ServerResult
{
    std::vector<Series> series; ///< Plain, durable per width.
    std::vector<std::uint64_t> threadCounts;
    std::map<std::string, double> derived;
};

ServerResult
runServerSuite(bool quick)
{
    ServerResult out;
    // Quick mode runs fewer waves of the same batch shape, so its
    // derived ratios are comparable with a full-mode baseline.
    const std::size_t devices = 192;
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
    // Higher is better: the share of plain throughput that survives
    // journaling (WAL appends plus one fsync per batch).
    out.derived["durable_retention"] =
        rate_hw > 0.0 ? durable_hw / rate_hw : 0.0;
    return out;
}

/** Frames/s per pool width, plain and durable, from the series. */
void
printServerTable(const ServerResult &r)
{
    util::Table table({"threads", "frames", "frames_per_s",
                       "speedup_vs_1", "durable_fps",
                       "durable_overhead_pct"});
    const double base = r.series.front().opsPerS;
    for (std::size_t i = 0; i < r.threadCounts.size(); ++i) {
        const Series &plain = r.series[2 * i];
        const Series &durable = r.series[2 * i + 1];
        const double rate = plain.opsPerS, drate = durable.opsPerS;
        table.row()
            .cell(r.threadCounts[i])
            .cell(plain.ops)
            .cell(rate)
            .cell(base > 0 ? rate / base : 1.0)
            .cell(drate)
            .cell(drate > 0 ? (rate / drate - 1.0) * 100.0 : 0.0);
    }
    table.print(std::cout);
    std::cout << "durable runs journal every mutation and fsync once "
                 "per batch; accepted counts matched the plain run at "
                 "every width\n";
}

// ---------------------------------------------------------------
// Output.
// ---------------------------------------------------------------

// ---------------------------------------------------------------
// Output.
// ---------------------------------------------------------------

void
writeHotpath(const std::string &path, const HotpathResult &r,
             bool quick)
{
    std::ofstream f(path);
    authbench::Json j(f);
    j.open();
    authbench::writeCommonHeader(j, "authenticache-bench-hotpath-v1",
                                 quick);
    j.openArray("benchmarks");
    for (const auto &s : r.series)
        authbench::writeSeries(j, s);
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
    authbench::Json j(f);
    j.open();
    authbench::writeCommonHeader(j, "authenticache-bench-server-v1",
                                 quick);
    j.openArray("thread_counts");
    for (std::uint64_t t : r.threadCounts) {
        j.openObject();
        j.field("threads", t);
        j.closeObject();
    }
    j.closeArray();
    j.openArray("benchmarks");
    for (const auto &s : r.series)
        authbench::writeSeries(j, s);
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
        std::cout << "  primitive checksum: " << std::hex << r.checksum
                  << std::dec << "\n";
    }
    if (server) {
        authbench::WallTimer t;
        auto r = runServerSuite(smoke);
        printServerTable(r);
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
