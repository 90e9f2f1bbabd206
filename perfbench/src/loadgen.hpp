/**
 * @file
 * The benchmark's device simulator ("loadgen" layer). It is not the
 * program under test: it manufactures a seeded fleet, answers every
 * challenge as an honest device would, injects a known number of bit
 * flips where a workload asks for them, and checks every verdict the
 * server returns against those flips.
 *
 * An honest answer is one core::evaluate on the device's stored error
 * map: the library's reference path. On these small error sets it is
 * about three times cheaper than core::evaluateIndexed (6.7 vs 19.9 us
 * for a 32-bit challenge on a 64 KB plane, 4-core x86 VM with AVX2),
 * which keeps the one generator thread well below saturation, and it
 * is independent of the indexed path the server evaluates with, so
 * every accepted answer cross-checks that path.
 *
 * WaveRunner feeds authentications into ServerFrontEnd::handleBatch
 * in pipelined waves, the way the socket transport lifts frames: each
 * call carries the responses to the previous wave's challenges plus
 * the next wave's AuthRequests.
 */

#ifndef PERFBENCH_LOADGEN_HPP
#define PERFBENCH_LOADGEN_HPP

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/challenge.hpp"
#include "protocol/messages.hpp"
#include "server/server.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

constexpr authenticache::core::VddMv kLevel = 700.0;
constexpr std::uint64_t kFirstDeviceId = 1001;

struct FleetSpec
{
    std::size_t devices = 0;
    std::uint64_t planeBytes = 0;
    std::size_t errors = 0;
};

/** Seeded fleet: every device's enrolled error map. */
class Fleet
{
  public:
    Fleet(const FleetSpec &spec, std::uint64_t seed);

    std::size_t size() const { return maps.size(); }
    static std::uint64_t id(std::size_t i) { return kFirstDeviceId + i; }

    /** The enrollment record of device @p i (zero map key). */
    authenticache::server::DeviceRecord record(std::size_t i) const;

    /** Honest response: one core::evaluate on the stored map. */
    authenticache::core::Response
    respond(std::uint64_t device,
            const authenticache::core::Challenge &c) const;

  private:
    std::vector<authenticache::core::ErrorMap> maps;
};

/** Flip @p flips distinct bits of @p r at positions drawn from @p rng. */
void injectFlips(authenticache::core::Response &r, std::size_t flips,
                 authenticache::util::Rng &rng);

/**
 * Correctness ledger. Any entry fails the run: an honest attempt
 * rejected, a verdict or trust step that disagrees with the injected
 * flips, an ErrorMsg nobody expected, or a recovered database that
 * differs from the live one.
 */
class Checker
{
  public:
    void fail(const std::string &what);

    /** An AuthDecision for a response that carried @p flips flips. */
    bool checkDecision(const authenticache::protocol::AuthDecision &d,
                       std::size_t flips, std::int64_t threshold);

    bool ok() const { return count == 0; }
    std::uint64_t failures() const { return count; }
    const std::vector<std::string> &examples() const { return first; }

  private:
    std::uint64_t count = 0;
    std::vector<std::string> first; ///< The first few, for the report.
};

/** Per-operation tallies shared by every workload. */
struct OpTally
{
    std::uint64_t attempted = 0;
    std::uint64_t accepted = 0; ///< Accepted decisions (goodput).
    std::uint64_t failed = 0;   ///< Ops that missed their verdict.
};

/**
 * A seeded sample of the run's recorded inputs, replayed through the
 * library's per-layer calls by the traced run.
 */
struct ReplaySample
{
    explicit ReplaySample(std::uint64_t seed)
        : rng(authenticache::util::Rng::forStream(seed, 0x5A4D))
    {
    }

    /** Keep this input? One in kOneIn are kept. */
    bool take() { return rng.nextBelow(kOneIn) == 0; }

    std::vector<std::pair<std::uint64_t, authenticache::core::Challenge>>
        challenges;
    /** (expected, received) response pairs for Verifier::verify. */
    std::vector<std::pair<authenticache::core::Response,
                          authenticache::core::Response>>
        verifies;
    std::vector<std::vector<std::uint8_t>> frames; ///< Encoded messages.

  private:
    static constexpr std::uint64_t kOneIn = 16;
    authenticache::util::Rng rng;
};

/** Reply sinks indexed by frame slot; each reply is wire-encoded. */
class ReplyCollector
{
  public:
    authenticache::protocol::ReplySink &sink(std::size_t slot);

    /** (slot, encoded reply) in emission order. */
    std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>>
        replies;

  private:
    struct SlotSink : authenticache::protocol::ReplySink
    {
        ReplyCollector *owner = nullptr;
        std::size_t slot = 0;
        void send(const authenticache::protocol::Message &m) override;
    };
    std::deque<SlotSink> sinks; ///< Stable addresses.
};

/** One authentication: a device and the flips its response carries. */
struct AuthOp
{
    std::uint64_t device = 0;
    std::size_t flips = 0;
};

/** Everything one server call touched, for workload bookkeeping. */
struct CallRecord
{
    double seconds = 0.0;
    std::size_t frames = 0;
    std::size_t accepted = 0; ///< Accepted decisions among the replies.
    bool rotated = false;     ///< DurabilityStats::rotations advanced.
};

class WaveRunner
{
  public:
    WaveRunner(authenticache::server::AuthenticationServer &server,
               const Fleet &fleet_, Checker &checker, std::uint64_t seed)
        : srv(server), fleet(fleet_), check(checker),
          flipRng(authenticache::util::Rng::forStream(seed, 0xF11B))
    {
    }

    /**
     * Run @p ops through handleBatch on @p pool, @p wave new requests
     * per call. Appends one latency (ms, the summed time of the two
     * calls that carried the op) per op to @p latencies_ms if given.
     */
    void run(std::span<const AuthOp> ops, std::size_t wave,
             authenticache::util::ThreadPool &pool, OpTally &tally,
             std::vector<double> *latencies_ms);

    /**
     * One timed handleBatch call over @p frames, recorded in calls()
     * and (when tracing) as a "server.handle_batch" span.
     */
    double call(std::span<authenticache::server::Frame> frames,
                authenticache::util::ThreadPool &pool);

    Tracer *tracer = nullptr;     ///< Set for the traced run.
    ReplaySample *sample = nullptr; ///< Set for the traced run.

    double serverSeconds() const { return inServer; }
    const std::vector<CallRecord> &calls() const { return log; }
    double respondSeconds() const { return inRespond; }
    std::uint64_t responses() const { return nResponses; }

    /** Honest response plus flips, timed as generator work. */
    authenticache::core::Response
    respond(std::uint64_t device, const authenticache::core::Challenge &c,
            std::size_t flips);

  private:
    authenticache::server::AuthenticationServer &srv;
    const Fleet &fleet;
    Checker &check;
    authenticache::util::Rng flipRng;
    ReplyCollector collector;
    std::vector<CallRecord> log;
    double inServer = 0.0;
    double inRespond = 0.0;
    std::uint64_t nResponses = 0;
};

/** Decode an encoded reply, recording a check failure if it is bad. */
bool decodeReply(const std::vector<std::uint8_t> &bytes,
                 authenticache::protocol::Message &out, Checker &check);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HPP
