#include "loadgen.hpp"

#include <variant>

#include "mc/mapgen.hpp"
#include "server/durability.hpp"

namespace perfbench {

namespace ac = authenticache;

Fleet::Fleet(const FleetSpec &spec, std::uint64_t seed)
{
    const ac::core::CacheGeometry geom(spec.planeBytes);
    maps.reserve(spec.devices);
    for (std::size_t i = 0; i < spec.devices; ++i) {
        ac::util::Rng rng = ac::util::Rng::forStream(seed, id(i));
        maps.push_back(
            ac::mc::randomErrorMap(geom, kLevel, spec.errors, rng));
    }
}

ac::server::DeviceRecord
Fleet::record(std::size_t i) const
{
    return ac::server::DeviceRecord(id(i), maps[i], {kLevel}, {});
}

ac::core::Response
Fleet::respond(std::uint64_t device, const ac::core::Challenge &c) const
{
    return ac::core::evaluate(maps.at(device - kFirstDeviceId), c);
}

void
injectFlips(ac::core::Response &r, std::size_t flips, ac::util::Rng &rng)
{
    if (flips == 0)
        return;
    for (auto i : rng.sampleDistinct(r.size(), flips))
        r.flip(static_cast<std::size_t>(i));
}

void
Checker::fail(const std::string &what)
{
    ++count;
    if (first.size() < 8)
        first.push_back(what);
}

bool
Checker::checkDecision(const ac::protocol::AuthDecision &d,
                       std::size_t flips, std::int64_t threshold)
{
    const bool want = static_cast<std::int64_t>(flips) <= threshold;
    if (d.accepted == want && d.hammingDistance == flips)
        return true;
    if (flips == 0 && !d.accepted)
        fail("honest attempt rejected (distance " +
             std::to_string(d.hammingDistance) + ")");
    else
        fail("auth verdict disagrees with " + std::to_string(flips) +
             " injected flips (accepted " +
             std::to_string(d.accepted) + ", distance " +
             std::to_string(d.hammingDistance) + ")");
    return false;
}

void
ReplyCollector::SlotSink::send(const ac::protocol::Message &m)
{
    owner->replies.emplace_back(slot, ac::protocol::encodeMessage(m));
}

ac::protocol::ReplySink &
ReplyCollector::sink(std::size_t slot)
{
    while (sinks.size() <= slot) {
        sinks.emplace_back();
        sinks.back().owner = this;
        sinks.back().slot = sinks.size() - 1;
    }
    return sinks[slot];
}

bool
decodeReply(const std::vector<std::uint8_t> &bytes,
            ac::protocol::Message &out, Checker &check)
{
    try {
        out = ac::protocol::decodeMessage(bytes);
        return true;
    } catch (const std::exception &e) {
        check.fail(std::string("undecodable reply: ") + e.what());
        return false;
    }
}

ac::core::Response
WaveRunner::respond(std::uint64_t device, const ac::core::Challenge &c,
                    std::size_t flips)
{
    const auto t0 = Clock::now();
    const ac::core::Response honest = fleet.respond(device, c);
    ac::core::Response r = honest;
    injectFlips(r, flips, flipRng);
    const auto t1 = Clock::now();
    if (sample && sample->take()) {
        sample->challenges.emplace_back(device, c);
        sample->verifies.emplace_back(honest, r);
    }
    inRespond += secondsBetween(t0, t1);
    ++nResponses;
    return r;
}

double
WaveRunner::call(std::span<ac::server::Frame> frames,
                 ac::util::ThreadPool &pool)
{
    ac::server::DurabilityManager *dur = srv.durability();
    const std::uint64_t rotations = dur ? dur->stats().rotations : 0;
    const auto t0 = Clock::now();
    srv.handleBatch(frames, pool);
    const auto t1 = Clock::now();
    const double s = secondsBetween(t0, t1);
    inServer += s;
    log.push_back(CallRecord{s, frames.size(), 0,
                             dur && dur->stats().rotations != rotations});
    if (tracer)
        tracer->record("server.handle_batch", 0, frames.size(), t0, t1);
    return s;
}

void
WaveRunner::run(std::span<const AuthOp> ops, std::size_t wave,
                ac::util::ThreadPool &pool, OpTally &tally,
                std::vector<double> *latencies_ms)
{
    namespace pr = ac::protocol;
    const std::int64_t threshold =
        ac::server::Verifier(srv.config().verifier)
            .thresholdFor(srv.config().challengeBits);

    struct Slot
    {
        std::size_t op;
        bool response; ///< Carries a ResponseMsg (else AuthRequest).
    };
    std::vector<double> opSeconds(ops.size(), 0.0);
    std::vector<std::pair<std::size_t, pr::Message>> carry;
    std::vector<ac::server::Frame> frames;
    std::vector<Slot> slots;
    std::vector<unsigned> seen;
    std::size_t next = 0;

    auto add = [&](std::size_t op, bool response, const pr::Message &m) {
        slots.push_back({op, response});
        frames.push_back({pr::encodeMessage(m),
                          &collector.sink(slots.size() - 1)});
        if (sample && sample->take())
            sample->frames.push_back(frames.back().bytes);
    };

    while (next < ops.size() || !carry.empty()) {
        frames.clear();
        slots.clear();
        collector.replies.clear();
        for (const auto &[op, msg] : carry)
            add(op, true, msg);
        carry.clear();
        for (std::size_t k = 0; k < wave && next < ops.size();
             ++k, ++next) {
            add(next, false, pr::AuthRequest{ops[next].device});
            ++tally.attempted;
        }

        const double dt = call(frames, pool);
        for (const Slot &s : slots)
            opSeconds[s.op] += dt;

        seen.assign(slots.size(), 0);
        for (const auto &[slot, bytes] : collector.replies) {
            ++seen[slot];
            const Slot &s = slots[slot];
            const AuthOp &op = ops[s.op];
            pr::Message m;
            if (!decodeReply(bytes, m, check)) {
                ++tally.failed;
                continue;
            }
            if (!s.response) {
                if (const auto *ch = std::get_if<pr::ChallengeMsg>(&m)) {
                    carry.emplace_back(
                        s.op, pr::ResponseMsg{ch->nonce,
                                              respond(op.device,
                                                      ch->challenge,
                                                      op.flips)});
                    continue;
                }
            } else if (const auto *d = std::get_if<pr::AuthDecision>(&m)) {
                if (d->accepted) {
                    ++tally.accepted;
                    ++log.back().accepted;
                }
                if (!check.checkDecision(*d, op.flips, threshold))
                    ++tally.failed;
                if (latencies_ms)
                    latencies_ms->push_back(opSeconds[s.op] * 1e3);
                continue;
            }
            ++tally.failed;
            const auto *err = std::get_if<pr::ErrorMsg>(&m);
            check.fail("unexpected reply to device " +
                       std::to_string(op.device) + ": " +
                       (err ? "ErrorMsg " + err->reason
                            : "type " + std::to_string(m.index())));
        }
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (seen[i] == 1)
                continue;
            check.fail("frame got " + std::to_string(seen[i]) +
                       " replies (device " +
                       std::to_string(ops[slots[i].op].device) + ")");
            if (seen[i] == 0)
                ++tally.failed;
        }
    }
}

} // namespace perfbench
