/**
 * @file
 * The in-process workloads:
 *
 *  - batch_auth_4mb: authentication waves straight into handleBatch
 *    on the paper's 4 MB plane. core evaluation, challenge
 *    generation, verify and the pool's parallel dispatch do the work;
 *    net does none.
 *  - durable_mixed: auths plus heartbeat rounds with DurabilityManager
 *    attached at the shipped rotation setting, and a seeded share of
 *    responses carrying flipped bits, so clean, marginal and failed
 *    verdicts all occur.
 */

#include <algorithm>
#include <unordered_map>
#include <variant>

#include "common.hpp"
#include "server/durability.hpp"
#include "util/sim_clock.hpp"

namespace perfbench {

namespace ac = authenticache;
namespace pr = ac::protocol;

namespace {

/** Fill the layers every in-process traced repetition reports. */
void
inProcessLayers(const WaveRunner &runner, double wall_s, RepResult &out)
{
    std::size_t frames = 0;
    for (const CallRecord &c : runner.calls())
        frames += c.frames;
    out.layers["server.batch_us_per_frame"] =
        frames ? runner.serverSeconds() * 1e6 / static_cast<double>(frames)
               : 0.0;
    // The generator runs between server calls on the same thread.
    out.layers["loadgen.busy_frac"] =
        wall_s > 0 ? (wall_s - runner.serverSeconds()) / wall_s : 0.0;
    out.layers["loadgen.respond_us"] =
        runner.responses() ? runner.respondSeconds() * 1e6 /
                                 static_cast<double>(runner.responses())
                           : 0.0;
}

// ------------------------------------------------------------------
// batch_auth_4mb
// ------------------------------------------------------------------

class BatchWorkload : public Workload
{
  public:
    static constexpr FleetSpec kSpec{10000, 4u << 20, 60};
    static constexpr std::size_t kBits = 128;
    static constexpr std::size_t kOps = 20000;
    static constexpr std::size_t kProbeOps = 8 * kWave;

    explicit BatchWorkload(const Env &e)
        : env(e), fleet(kSpec, e.seed),
          order(devicePermutation(kSpec.devices, e.seed))
    {
    }

    RepResult
    rep(Checker &check, bool traced) override
    {
        RepResult out;
        ScratchDir dir(env.scratch->path());
        ac::util::ThreadPool pool(env.poolWidth);
        trimHeap();
        const std::uint64_t base = residentBytes();

        const auto t0 = Clock::now();
        ac::server::ServerConfig cfg;
        cfg.challengeBits = kBits;
        auto server =
            std::make_unique<ac::server::AuthenticationServer>(cfg,
                                                               env.seed);
        enrollFleet(*server, fleet);
        WaveRunner warm(*server, fleet, check, env.seed);
        warmUp(warm, fleet, pool);
        out.setupS = secondsSince(t0);

        Tracer tracer;
        ReplaySample sample(env.seed);
        WaveRunner runner(*server, fleet, check, env.seed + 1);
        if (traced) {
            runner.tracer = &tracer;
            runner.sample = &sample;
        }
        const std::vector<AuthOp> ops = honestOps(order, 0, kOps);
        const auto w0 = Clock::now();
        runner.run(ops, kWave, pool, out.tally, &out.latenciesMs);
        const double wall = secondsSince(w0);
        out.goodputPerS =
            static_cast<double>(out.tally.accepted) / runner.serverSeconds();
        out.goodputChunks = chunkGoodput(runner.calls(), 8);
        out.serverMemMb = memGrowthMb(base);

        const RecoveryCheck rc =
            recoverAndCompare(*server, dir.subdir("checkpoint"), check);
        out.recoverS = rc.seconds;
        if (traced) {
            inProcessLayers(runner, wall, out);
            out.layers["durability.snapshot_mb"] = rc.snapshotMb;
            replayLayers(sample, *server, tracer, out.layers);
            poolProbe(*server, fleet, check,
                      honestOps(order, kOps, kProbeOps), env.poolWidth,
                      env.seed, out.layers);
            if (!env.traceOut.empty())
                tracer.writeTsv(env.traceOut);
        }
        return out;
    }

    void
    describe(JsonWriter &out) const override
    {
        out.field("devices", kSpec.devices)
            .field("plane_bytes", kSpec.planeBytes)
            .field("errors", kSpec.errors)
            .field("challenge_bits", kBits)
            .field("timed_auths", kOps)
            .field("warmup_auths", kSpec.devices)
            .field("wave_requests", kWave)
            .field("generator_threads", 1) // The calling thread.
            .field("connections", 0)
            .field("durability", "off")
            .field("link", "in-process");
    }

  private:
    Env env;
    Fleet fleet;
    std::vector<std::uint64_t> order;
};

// ------------------------------------------------------------------
// durable_mixed
// ------------------------------------------------------------------

/** The generator's copy of one device's trust ledger. */
struct TrustModel
{
    std::uint32_t trust = 0;
    bool stepUp = false;
};

/**
 * Heartbeat side of durable_mixed: emits rounds with tickHeartbeats,
 * answers each with a proof carrying a chosen number of flips, and
 * checks the verdict and trust step against its own ledger model.
 */
class HeartbeatDriver
{
  public:
    HeartbeatDriver(ac::server::AuthenticationServer &server,
                    WaveRunner &runner_, Checker &checker,
                    std::uint64_t seed)
        : srv(server), runner(runner_), check(checker),
          rng(ac::util::Rng::forStream(seed, 0x4EA7)),
          policy(server.config().trust)
    {
        const ac::server::Verifier v(server.config().verifier);
        thrBeat = v.thresholdFor(policy.heartbeatBits);
        thrFull = v.thresholdFor(server.config().challengeBits);
        srv.bindClock(&clock);
    }

    /** Open every device's session and answer its first round cleanly. */
    void
    start(const Fleet &fleet, ac::util::ThreadPool &pool, OpTally &tally)
    {
        emitted.replies.clear();
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            const std::uint64_t id = Fleet::id(i);
            model[id] = {policy.initial, policy.initial < policy.stepUpBelow};
            srv.startHeartbeat(id, emitted.sink(0));
        }
        answer(pool, tally, nullptr, 0.0, false);
    }

    /** One cadence step: every session's round, answered and checked. */
    void
    round(ac::util::ThreadPool &pool, OpTally &tally,
          std::vector<double> *latencies_ms)
    {
        clock.advance(policy.periodSteps);
        srv.tick();
        emitted.replies.clear();
        ac::server::DurabilityManager *dur = srv.durability();
        const std::uint64_t rotations = dur ? dur->stats().rotations : 0;
        const auto t0 = Clock::now();
        srv.tickHeartbeats(emitted.sink(0));
        const auto t1 = Clock::now();
        const double dt = secondsBetween(t0, t1);
        if (runner.tracer)
            runner.tracer->record("server.tick_heartbeats", 0,
                                  emitted.replies.size(), t0, t1);
        tickSeconds += dt;
        ++rounds;
        if (dur && dur->stats().rotations != rotations)
            rotatedCalls.push_back(dt);
        answer(pool, tally, latencies_ms, dt, true);
    }

    double tickSeconds = 0.0;
    std::uint64_t rounds = 0;
    std::vector<double> rotatedCalls; ///< Seconds of rotating ticks.
    std::uint64_t verdicts[3] = {0, 0, 0}; ///< clean, marginal, failed.

  private:
    struct Proof
    {
        std::uint64_t device;
        std::size_t flips;
        std::size_t bits;
    };

    /** Device of an outstanding heartbeat nonce (shard-locked read). */
    std::uint64_t
    deviceOf(std::uint64_t nonce)
    {
        ac::server::SessionShard &sh = srv.sessions().shardForNonce(nonce);
        ac::util::MutexLock lock(sh.mutex);
        auto it = sh.heartbeatByNonce.find(nonce);
        return it == sh.heartbeatByNonce.end() ? 0 : it->second;
    }

    /** Flips for the next proof: clean, marginal or failed, never
     *  letting trust fall to the remap rung. */
    std::size_t
    chooseFlips(const TrustModel &m, std::int64_t thr, std::size_t bits)
    {
        const double r = rng.nextDouble();
        const std::uint32_t floor = policy.remapBelow + 5;
        if (r < 0.08 && m.trust >= floor + policy.failPenalty)
            return std::min<std::size_t>(
                bits, static_cast<std::size_t>(thr) + 1 + rng.nextBelow(4));
        if (r < 0.16 && thr > 0 &&
            m.trust >= floor + policy.marginalPenalty)
            return static_cast<std::size_t>(thr);
        return 0;
    }

    void
    answer(ac::util::ThreadPool &pool, OpTally &tally,
           std::vector<double> *latencies_ms, double tick_s, bool counted)
    {
        std::vector<Proof> proofs;
        std::vector<ac::server::Frame> frames;
        for (const auto &[slot, bytes] : emitted.replies) {
            pr::Message m;
            if (!decodeReply(bytes, m, check))
                continue;
            const auto *beat = std::get_if<pr::Heartbeat>(&m);
            if (beat == nullptr) {
                check.fail("tickHeartbeats emitted message type " +
                           std::to_string(m.index()));
                continue;
            }
            const std::uint64_t device = deviceOf(beat->nonce);
            auto it = model.find(device);
            if (it == model.end()) {
                check.fail("heartbeat nonce maps to no device");
                continue;
            }
            const std::size_t bits = it->second.stepUp
                                         ? srv.config().challengeBits
                                         : policy.heartbeatBits;
            if (beat->challenge.size() != bits)
                check.fail("heartbeat width " +
                           std::to_string(beat->challenge.size()) +
                           " disagrees with the trust step (want " +
                           std::to_string(bits) + ")");
            const std::int64_t thr = bits == policy.heartbeatBits
                                         ? thrBeat
                                         : thrFull;
            const std::size_t flips =
                counted ? chooseFlips(it->second, thr, bits) : 0;
            proofs.push_back({device, flips, bits});
            frames.push_back(
                {pr::encodeMessage(pr::HeartbeatProof{
                     beat->nonce,
                     runner.respond(device, beat->challenge, flips)}),
                 nullptr});
        }

        ReplyCollector verdictSink;
        for (std::size_t lo = 0; lo < frames.size(); lo += 2 * kWave) {
            const std::size_t hi = std::min(frames.size(), lo + 2 * kWave);
            for (std::size_t i = lo; i < hi; ++i)
                frames[i].reply = &verdictSink.sink(i - lo);
            verdictSink.replies.clear();
            const double dt = runner.call(
                std::span<ac::server::Frame>(frames.data() + lo, hi - lo),
                pool);
            std::vector<unsigned> seen(hi - lo, 0);
            for (const auto &[slot, bytes] : verdictSink.replies) {
                ++seen[slot];
                const Proof &p = proofs[lo + slot];
                pr::Message m;
                bool ok = decodeReply(bytes, m, check);
                if (ok) {
                    const auto *v = std::get_if<pr::TrustUpdate>(&m);
                    if (v == nullptr) {
                        check.fail("heartbeat answered with message type " +
                                   std::to_string(m.index()));
                        ok = false;
                    } else {
                        ok = checkVerdict(*v, p);
                        if (v->accepted && counted)
                            ++tally.accepted;
                    }
                }
                if (counted && !ok)
                    ++tally.failed;
                if (counted && latencies_ms)
                    latencies_ms->push_back((tick_s + dt) * 1e3);
            }
            for (std::size_t i = 0; i < seen.size(); ++i) {
                if (seen[i] == 1)
                    continue;
                check.fail("heartbeat proof got " + std::to_string(seen[i]) +
                           " replies");
                if (counted && seen[i] == 0)
                    ++tally.failed;
            }
        }
        if (counted)
            tally.attempted += proofs.size();
    }

    /** Compare a TrustUpdate with the ledger model, then advance it. */
    bool
    checkVerdict(const pr::TrustUpdate &v, const Proof &p)
    {
        TrustModel &m = model[p.device];
        const std::int64_t thr =
            p.bits == policy.heartbeatBits ? thrBeat : thrFull;
        const bool accepted = static_cast<std::int64_t>(p.flips) <= thr;
        const bool marginal =
            accepted && thr > 0 &&
            static_cast<std::uint64_t>(p.flips) * 100 >=
                static_cast<std::uint64_t>(thr) * policy.marginPercent;
        std::uint32_t trust = m.trust;
        if (!accepted)
            trust = trust > policy.failPenalty ? trust - policy.failPenalty
                                               : 0;
        else if (marginal)
            trust = trust > policy.marginalPenalty
                        ? trust - policy.marginalPenalty
                        : 0;
        else
            trust = std::min(trust + policy.cleanRecovery, policy.max);
        ++verdicts[!accepted ? 2 : marginal ? 1 : 0];

        m.trust = trust;
        m.stepUp = trust < policy.stepUpBelow;
        const auto tier = static_cast<std::uint8_t>(
            m.stepUp ? pr::TrustTier::StepUp : pr::TrustTier::Nominal);
        if (trust < policy.remapBelow) {
            check.fail("device " + std::to_string(p.device) +
                       " reached the remap rung");
            return false;
        }
        if (v.accepted == accepted && v.hammingDistance == p.flips &&
            v.trust == trust && v.tier == tier)
            return true;
        check.fail("heartbeat verdict for device " +
                   std::to_string(p.device) + " disagrees with " +
                   std::to_string(p.flips) + " injected flips (trust " +
                   std::to_string(v.trust) + " want " +
                   std::to_string(trust) + ", tier " +
                   std::to_string(v.tier) + " want " +
                   std::to_string(tier) + ")");
        return false;
    }

    ac::server::AuthenticationServer &srv;
    WaveRunner &runner;
    Checker &check;
    ac::util::Rng rng;
    ac::server::TrustPolicy policy;
    std::int64_t thrBeat = 0;
    std::int64_t thrFull = 0;
    ac::util::SimClock clock;
    ReplyCollector emitted;
    std::unordered_map<std::uint64_t, TrustModel> model;
};

class DurableWorkload : public Workload
{
  public:
    static constexpr FleetSpec kSpec{2048, 64u << 10, 40};
    static constexpr std::size_t kRounds = 6;
    static constexpr std::size_t kAuthsPerRound = 512;
    static constexpr std::size_t kProbeOps = 8 * kWave;

    explicit DurableWorkload(const Env &e)
        : env(e), fleet(kSpec, e.seed),
          order(devicePermutation(kSpec.devices, e.seed))
    {
        // A seeded tenth of the auths carry flips: half within the
        // verifier threshold (accepted with that distance), half
        // beyond it (rejected).
        const ac::server::ServerConfig cfg;
        const std::int64_t thr =
            ac::server::Verifier(cfg.verifier).thresholdFor(cfg.challengeBits);
        ac::util::Rng rng = ac::util::Rng::forStream(e.seed, 0xA17F);
        ops = honestOps(order, 0, kRounds * kAuthsPerRound);
        for (AuthOp &op : ops) {
            const double r = rng.nextDouble();
            if (r < 0.05 && thr > 0)
                op.flips = 1 + rng.nextBelow(static_cast<std::uint64_t>(thr));
            else if (r < 0.10)
                op.flips = static_cast<std::size_t>(thr) + 1 + rng.nextBelow(8);
        }
    }

    RepResult
    rep(Checker &check, bool traced) override
    {
        RepResult out;
        ScratchDir dir(env.scratch->path()); // Outlives `dur` below.
        ac::util::ThreadPool pool(env.poolWidth);
        trimHeap();
        const std::uint64_t base = residentBytes();

        const auto t0 = Clock::now();
        auto server = std::make_unique<ac::server::AuthenticationServer>(
            ac::server::ServerConfig{}, env.seed);
        enrollFleet(*server, fleet);
        Tracer tracer;
        ReplaySample sample(env.seed);
        WaveRunner runner(*server, fleet, check, env.seed + 1);
        warmUp(runner, fleet, pool);
        HeartbeatDriver beats(*server, runner, check, env.seed);
        OpTally setupTally;
        beats.start(fleet, pool, setupTally);
        ac::server::DurabilityConfig dcfg;
        dcfg.dir = dir.subdir("durable");
        ac::server::DurabilityManager dur(dcfg, server->database());
        server->attachDurability(&dur);
        out.setupS = secondsSince(t0);

        if (traced) {
            runner.tracer = &tracer;
            runner.sample = &sample;
        }
        const double serverBefore = runner.serverSeconds();
        const double respondBefore = runner.respondSeconds();
        const std::uint64_t responsesBefore = runner.responses();
        const std::size_t callsBefore = runner.calls().size();
        const ac::server::DurabilityStats stats0 = dur.stats();
        const std::uint64_t written0 = storageWriteBytes();
        const auto w0 = Clock::now();
        for (std::size_t r = 0; r < kRounds; ++r) {
            const std::uint64_t accepted = out.tally.accepted;
            const double inServer = runner.serverSeconds() + beats.tickSeconds;
            runner.run(std::span<const AuthOp>(
                           ops.data() + r * kAuthsPerRound, kAuthsPerRound),
                       kWave, pool, out.tally, &out.latenciesMs);
            beats.round(pool, out.tally, &out.latenciesMs);
            out.goodputChunks.push_back(
                static_cast<double>(out.tally.accepted - accepted) /
                (runner.serverSeconds() + beats.tickSeconds - inServer));
        }
        const double wall = secondsSince(w0);
        const std::uint64_t written = storageWriteBytes() - written0;
        const ac::server::DurabilityStats stats1 = dur.stats();
        const double serverS =
            runner.serverSeconds() - serverBefore + beats.tickSeconds;
        out.goodputPerS = static_cast<double>(out.tally.accepted) / serverS;
        out.serverMemMb = memGrowthMb(base);

        const RecoveryCheck rc = recoverAndCompare(*server, dcfg.dir, check);
        out.recoverS = rc.seconds;
        server->attachDurability(nullptr); // `dur` dies first.
        out.info["heartbeats_clean"] = static_cast<double>(beats.verdicts[0]);
        out.info["heartbeats_marginal"] =
            static_cast<double>(beats.verdicts[1]);
        out.info["heartbeats_failed"] = static_cast<double>(beats.verdicts[2]);
        out.info["snapshot_rotations"] =
            static_cast<double>(stats1.rotations - stats0.rotations);
        if (beats.verdicts[1] == 0 || beats.verdicts[2] == 0)
            check.fail("heartbeat rounds produced no marginal or no "
                       "failed verdict");
        if (!traced)
            return out;

        const double opsDone = static_cast<double>(out.tally.attempted);
        std::vector<double> rotating = beats.rotatedCalls;
        std::size_t frames = 0;
        for (std::size_t i = callsBefore; i < runner.calls().size(); ++i) {
            const CallRecord &c = runner.calls()[i];
            frames += c.frames;
            if (c.rotated)
                rotating.push_back(c.seconds);
        }
        for (double &s : rotating)
            s *= 1e3;
        auto &L = out.layers;
        L["server.batch_us_per_frame"] =
            frames ? (runner.serverSeconds() - serverBefore) * 1e6 /
                         static_cast<double>(frames)
                   : 0.0;
        L["loadgen.busy_frac"] = (wall - serverS) / wall;
        const std::uint64_t responses = runner.responses() - responsesBefore;
        L["loadgen.respond_us"] =
            responses ? (runner.respondSeconds() - respondBefore) * 1e6 /
                            static_cast<double>(responses)
                      : 0.0;
        L["durability.rotations_per_kop"] =
            static_cast<double>(stats1.rotations - stats0.rotations) * 1e3 /
            opsDone;
        L["durability.rotate_batch_ms"] = median(rotating);
        L["durability.fsyncs_per_op"] =
            static_cast<double>(stats1.fsyncs - stats0.fsyncs) / opsDone;
        L["durability.write_bytes_per_op"] =
            static_cast<double>(written) / opsDone;
        L["durability.snapshot_mb"] = rc.snapshotMb;
        L["server.tick_us_per_round"] =
            beats.tickSeconds * 1e6 / static_cast<double>(beats.rounds);
        L["server.stepups"] = static_cast<double>(server->stepUps());

        // DurabilityManager::rotate replayed on a copy of the state.
        {
            ac::server::DurabilityConfig copy;
            copy.dir = dir.subdir("rotate-replay");
            ac::server::DurabilityManager replay(copy, server->database());
            std::vector<double> ms;
            for (int i = 0; i < 3; ++i) {
                const auto r0 = Clock::now();
                replay.rotate(server->database());
                ms.push_back(secondsSince(r0) * 1e3);
            }
            L["durability.rotate_ms"] = median(ms);
        }
        replayLayers(sample, *server, tracer, L);
        poolProbe(*server, fleet, check,
                  honestOps(order, kRounds * kAuthsPerRound, kProbeOps),
                  env.poolWidth, env.seed, L);
        if (!env.traceOut.empty())
            tracer.writeTsv(env.traceOut);
        return out;
    }

    void
    describe(JsonWriter &out) const override
    {
        out.field("devices", kSpec.devices)
            .field("plane_bytes", kSpec.planeBytes)
            .field("errors", kSpec.errors)
            .field("challenge_bits", ac::server::ServerConfig{}.challengeBits)
            .field("heartbeat_bits",
                   ac::server::TrustPolicy{}.heartbeatBits)
            .field("rounds", kRounds)
            .field("timed_auths", kRounds * kAuthsPerRound)
            .field("timed_heartbeats", kRounds * kSpec.devices)
            .field("warmup_auths", kSpec.devices)
            .field("wave_requests", kWave)
            .field("rotate_every_appends",
                   ac::server::DurabilityConfig{}.rotateEveryAppends)
            .field("durability_fs", filesystemType(env.scratch->path()))
            .field("generator_threads", 1) // The calling thread.
            .field("connections", 0)
            .field("link", "in-process");
    }

  private:
    Env env;
    Fleet fleet;
    std::vector<std::uint64_t> order;
    std::vector<AuthOp> ops;
};

} // namespace

std::unique_ptr<Workload>
makeBatchWorkload(const Env &env)
{
    return std::make_unique<BatchWorkload>(env);
}

std::unique_ptr<Workload>
makeDurableWorkload(const Env &env)
{
    return std::make_unique<DurableWorkload>(env);
}

} // namespace perfbench
