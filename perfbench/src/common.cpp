#include "common.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "metrics.hpp"
#include "server/durability.hpp"
#include "server/storage.hpp"

namespace perfbench {

namespace ac = authenticache;

std::vector<std::uint64_t>
devicePermutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint64_t> ids(n);
    for (std::size_t i = 0; i < n; ++i)
        ids[i] = Fleet::id(i);
    ac::util::Rng rng = ac::util::Rng::forStream(seed, 0x9E12);
    rng.shuffle(ids);
    return ids;
}

std::vector<AuthOp>
honestOps(const std::vector<std::uint64_t> &order, std::size_t from,
          std::size_t count)
{
    std::vector<AuthOp> ops(count);
    for (std::size_t i = 0; i < count; ++i)
        ops[i].device = order[(from + i) % order.size()];
    return ops;
}

void
enrollFleet(ac::server::AuthenticationServer &server, const Fleet &fleet)
{
    for (std::size_t i = 0; i < fleet.size(); ++i)
        server.enrollRecord(fleet.record(i));
}

void
warmUp(WaveRunner &runner, const Fleet &fleet, ac::util::ThreadPool &pool)
{
    std::vector<AuthOp> ops(fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i)
        ops[i].device = Fleet::id(i);
    OpTally tally;
    runner.run(ops, kWave, pool, tally, nullptr);
}

namespace {
constexpr std::size_t kMinRecoveries = 3;
constexpr std::size_t kMaxRecoveries = 9;
constexpr double kRecoverBudgetS = 1.0;
} // namespace

RecoveryCheck
recoverAndCompare(ac::server::AuthenticationServer &server,
                  const std::string &dir, Checker &check)
{
    ac::server::DurabilityConfig cfg;
    cfg.dir = dir;
    std::uint64_t generation = 0;
    if (const auto *dur = server.durability())
        generation = dur->generation();
    else
        ac::server::DurabilityManager checkpoint(cfg, server.database());

    RecoveryCheck out;
    std::vector<double> seconds;
    std::optional<ac::server::RecoveryResult> recovered;
    double spent = 0.0;
    while (seconds.size() < kMinRecoveries ||
           (spent < kRecoverBudgetS && seconds.size() < kMaxRecoveries)) {
        const auto t0 = Clock::now();
        recovered = ac::server::DurabilityManager::recover(cfg);
        seconds.push_back(secondsSince(t0));
        spent += seconds.back();
    }
    // The fastest attempt: recovery is CPU work on a cached file, and
    // the minimum drops host stalls that land in one attempt.
    out.seconds = *std::min_element(seconds.begin(), seconds.end());
    out.snapshotMb =
        static_cast<double>(std::filesystem::file_size(
            ac::server::DurabilityManager::snapshotPath(dir,
                                                        generation))) /
        1e6;
    if (ac::server::saveDatabase(recovered->db) !=
        ac::server::saveDatabase(server.database()))
        check.fail("recovered database differs from the live one");
    return out;
}

void
replayLayers(const ReplaySample &sample,
             const ac::server::AuthenticationServer &server, Tracer &tr,
             std::map<std::string, double> &layers)
{
    std::size_t bytes = 0;
    for (const auto &frame : sample.frames) {
        auto t0 = Clock::now();
        ac::protocol::Message m = ac::protocol::decodeMessage(frame);
        auto t1 = Clock::now();
        tr.record("protocol.decodeMessage", 0, frame.size(), t0, t1);
        t0 = Clock::now();
        bytes += ac::protocol::encodeMessage(m).size();
        t1 = Clock::now();
        tr.record("protocol.encodeMessage", 0, frame.size(), t0, t1);
    }
    if (bytes == 0 && !sample.frames.empty())
        throw std::logic_error("replayed frames encoded to nothing");

    ac::core::EvalScratch scratch;
    double bits = 0.0;
    for (const auto &[device, challenge] : sample.challenges) {
        const auto &indexes =
            server.database().at(device).logicalIndexes();
        const auto t0 = Clock::now();
        ac::core::Response r =
            ac::core::evaluateIndexed(indexes, challenge, scratch);
        tr.record("core.evaluateIndexed", 0, device, t0, Clock::now());
        bits += static_cast<double>(r.size());
    }

    const ac::server::Verifier verifier(server.config().verifier);
    for (const auto &[expected, received] : sample.verifies) {
        const auto t0 = Clock::now();
        ac::server::Verdict v = verifier.verify(expected, received);
        tr.record("Verifier::verify", 0, v.hammingDistance, t0,
                  Clock::now());
    }

    std::vector<double> eval = tr.micros("core.evaluateIndexed");
    layers["protocol.decode_us"] = tr.meanMicros("protocol.decodeMessage");
    layers["protocol.encode_us"] = tr.meanMicros("protocol.encodeMessage");
    layers["core.evaluate_us_p50"] = percentile(eval, 0.50);
    layers["core.evaluate_us_p99"] = percentile(eval, 0.99);
    layers["core.ns_per_bit"] =
        bits > 0 ? tr.totalMicros("core.evaluateIndexed") * 1e3 / bits
                 : 0.0;
    layers["server.verify_us"] = tr.meanMicros("Verifier::verify");
}

void
poolProbe(ac::server::AuthenticationServer &server, const Fleet &fleet,
          Checker &check, const std::vector<AuthOp> &ops, unsigned width,
          std::uint64_t seed, std::map<std::string, double> &layers)
{
    ac::util::ThreadPool one(1);
    ac::util::ThreadPool wide(width);
    ac::util::ThreadPool *order[4] = {&one, &wide, &wide, &one};
    const std::size_t chunk = ops.size() / 4;
    double seconds[2] = {0.0, 0.0}; // width 1, width W
    std::size_t frames = 0;
    for (std::size_t k = 0; k < 4; ++k) {
        WaveRunner runner(server, fleet, check, seed + k);
        OpTally tally;
        runner.run(std::span<const AuthOp>(ops.data() + k * chunk, chunk),
                   kWave, *order[k], tally, nullptr);
        const bool isWide = order[k] == &wide;
        seconds[isWide] += runner.serverSeconds();
        if (isWide)
            for (const CallRecord &c : runner.calls())
                frames += c.frames;
    }
    layers["pool.speedup_vs_1"] =
        seconds[1] > 0 ? seconds[0] / seconds[1] : 0.0;
    layers["server.batch_us_per_frame"] =
        frames ? seconds[1] * 1e6 / static_cast<double>(frames) : 0.0;
}

std::vector<double>
chunkGoodput(std::span<const CallRecord> calls, std::size_t per_chunk)
{
    std::vector<double> out;
    for (std::size_t lo = 0; lo + per_chunk <= calls.size(); lo += per_chunk) {
        double seconds = 0.0;
        std::size_t accepted = 0;
        for (std::size_t i = lo; i < lo + per_chunk; ++i) {
            seconds += calls[i].seconds;
            accepted += calls[i].accepted;
        }
        out.push_back(static_cast<double>(accepted) / seconds);
    }
    return out;
}

double
memGrowthMb(std::uint64_t base)
{
    const std::uint64_t now = residentBytes();
    return now > base ? static_cast<double>(now - base) / 1e6 : 0.0;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "wire_auth_small", "batch_auth_4mb", "durable_mixed"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Env &env)
{
    if (name == "wire_auth_small")
        return makeWireWorkload(env);
    if (name == "batch_auth_4mb")
        return makeBatchWorkload(env);
    if (name == "durable_mixed")
        return makeDurableWorkload(env);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace perfbench
