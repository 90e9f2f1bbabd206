/**
 * @file
 * Exhaustive single-fault sweep over the canonical
 * enroll -> authenticate -> remap exchange: every fault type at every
 * frame index of the fault-free baseline. The reliability layer's
 * contract is that each faulted run either completes or fails with a
 * clean status -- no hang, no leaked pending session after GC, no
 * double-retired challenge pair, and both sides' logical-map keys
 * stay in sync. Every frame crosses net::LoopbackTransport (wire
 * framing, admission, batch lift), which injects the fault. The whole
 * sweep is replayed under the same seeds, must produce bit-for-bit
 * identical outcomes, and must match the checked-in golden
 * (tests/golden/fault_sweep.txt) at any server pool width.
 */

#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/loopback.hpp"
#include "server/server.hpp"
#include "substrate_test_util.hpp"

namespace fw = authenticache::firmware;
namespace testutil = authenticache::testutil;
namespace core = authenticache::core;
namespace proto = authenticache::protocol;
namespace net = authenticache::net;
namespace srv = authenticache::server;
namespace util = authenticache::util;
using authenticache::util::SimClock;

namespace {

constexpr std::uint64_t kChipSeed = 0x5EED;
constexpr std::uint64_t kServerSeed = 777;
constexpr std::uint64_t kDeviceId = 9;
constexpr std::uint64_t kPlanSeed = 0xFA017;
constexpr std::uint64_t kDelaySteps = 8;
constexpr std::uint64_t kSessionTimeout = 40;
constexpr std::uint64_t kMaxSteps = 400;

// The fault-free exchange: AuthRequest(0) Challenge(1) Response(2)
// Decision(3) RemapRequest(4) RemapAck(5) RemapCommit(6).
constexpr std::uint64_t kBaselineFrames = 7;

const char *
frameName(std::uint64_t index)
{
    static const char *names[] = {
        "AuthRequest", "Challenge", "Response",   "Decision",
        "RemapRequest", "RemapAck", "RemapCommit"};
    return index < kBaselineFrames ? names[index] : "?";
}

const char *
faultName(net::FaultType t)
{
    switch (t) {
      case net::FaultType::None: return "none";
      case net::FaultType::Drop: return "drop";
      case net::FaultType::Duplicate: return "duplicate";
      case net::FaultType::Reorder: return "reorder";
      case net::FaultType::Delay: return "delay";
      case net::FaultType::Corrupt: return "corrupt";
    }
    return "?";
}

srv::ServerConfig
serverConfig()
{
    srv::ServerConfig scfg;
    scfg.challengeBits = 32;
    scfg.remapSecretBits = 8;
    scfg.fuzzyRepetition = 5;
    scfg.verifier.pIntra = 0.08;
    scfg.sessionTimeoutSteps = kSessionTimeout;
    return scfg;
}

/** Enrollment template captured once: error map, floor, levels. */
struct DeviceTemplate
{
    core::ErrorMap map;
    double floorMv;
    std::vector<core::VddMv> levels;
    core::VddMv reserved;
};

DeviceTemplate
captureTemplate()
{
    auto chip = testutil::makeTestSubstrate(kChipSeed);
    fw::SimulatedMachine machine(kDeviceId);
    fw::ClientConfig ccfg;
    ccfg.selfTestAttempts = 8;
    fw::AuthenticacheClient client(*chip, machine, ccfg);

    double floor = client.boot();
    auto levels = srv::defaultChallengeLevels(client, 1);
    auto reserved = srv::defaultReservedLevel(client);
    std::vector<core::VddMv> all = levels;
    all.push_back(reserved);
    return DeviceTemplate{client.captureErrorMap(all, 8), floor,
                          std::move(levels), reserved};
}

/** Everything a single faulted run can report, serializable. */
struct RunOutcome
{
    bool quiesced = false;
    std::uint64_t steps = 0;
    std::string authStatus;
    bool accepted = false;
    std::uint64_t remapsCommitted = 0;
    std::uint64_t agentRemapTimeouts = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t dupRequests = 0;
    std::uint64_t dupCompletions = 0;
    std::uint64_t expired = 0;
    std::size_t pendingAfterGc = 0;
    std::size_t consumedAuthPairs = 0;
    std::size_t consumedReservedPairs = 0;
    bool keysInSync = false;

    std::string
    serialize() const
    {
        std::ostringstream os;
        os << "quiesced=" << quiesced << " steps=" << steps
           << " auth=" << authStatus << " accepted=" << accepted
           << " remaps=" << remapsCommitted
           << " remapTimeouts=" << agentRemapTimeouts
           << " retx=" << retransmissions
           << " dupReq=" << dupRequests
           << " dupDone=" << dupCompletions << " expired=" << expired
           << " pending=" << pendingAfterGc
           << " consumedAuth=" << consumedAuthPairs
           << " consumedReserved=" << consumedReservedPairs
           << " keySync=" << keysInSync;
        return os.str();
    }
};

std::string
statusName(const std::optional<fw::AuthOutcome::Status> &s)
{
    if (!s)
        return "InFlight";
    switch (*s) {
      case fw::AuthOutcome::Status::Ok: return "Ok";
      case fw::AuthOutcome::Status::Aborted: return "Aborted";
      case fw::AuthOutcome::Status::TimedOut: return "TimedOut";
    }
    return "?";
}

/**
 * Run the canonical exchange under one fault plan on a fresh device,
 * server, transport, and clock, all rebuilt from the same seeds: the
 * only degree of freedom between runs is the plan itself (the server's
 * pool width must not matter).
 */
RunOutcome
runFaultedExchange(const DeviceTemplate &tmpl,
                   const net::FaultPlan &fault_plan,
                   util::ThreadPool &pool,
                   proto::Transcript *tap = nullptr)
{
    auto chip = testutil::makeTestSubstrate(kChipSeed);
    fw::SimulatedMachine machine(kDeviceId);
    fw::ClientConfig ccfg;
    ccfg.selfTestAttempts = 8;
    fw::AuthenticacheClient client(*chip, machine, ccfg);
    client.adoptFloor(tmpl.floorMv);

    srv::AuthenticationServer server(serverConfig(), kServerSeed);
    server.enrollWithMap(kDeviceId, tmpl.map, client, tmpl.levels,
                         {tmpl.reserved});

    SimClock clock;
    server.bindClock(&clock);
    net::LoopbackTransport loop(server.frontEnd(), {});
    loop.bindClock(&clock);
    loop.setFaultPlan(fault_plan);
    if (tap)
        loop.attachTranscript(tap);
    net::LoopbackTransport::Client &conn = *loop.connect();

    srv::DeviceAgent agent(kDeviceId, client, conn.uplink(kDeviceId));
    agent.bindClock(&clock);

    RunOutcome out;
    agent.requestAuthentication();
    auto auth = net::runExchangeSteps(server, conn, agent, clock,
                                      kMaxSteps, pool);
    server.startRemap(kDeviceId, conn.downlink(kDeviceId));
    auto remap = net::runExchangeSteps(server, conn, agent, clock,
                                       kMaxSteps, pool);

    out.quiesced = auth.quiesced && remap.quiesced;
    out.steps = auth.steps + remap.steps;
    out.authStatus = statusName(agent.lastAuthStatus());
    out.accepted = agent.lastDecision().has_value() &&
                   agent.lastDecision()->accepted;

    // Whatever the fault did, the session deadline must eventually
    // reclaim every pending session.
    clock.advance(kSessionTimeout + 1);
    server.tick();
    out.pendingAfterGc = server.pendingSessions();

    out.remapsCommitted = server.remapsCommitted();
    out.agentRemapTimeouts = agent.remapsTimedOut();
    out.retransmissions = agent.retransmissions();
    out.dupRequests = server.duplicateRequests();
    out.dupCompletions = server.duplicateCompletions();
    out.expired = server.sessionsExpired();

    const auto &record = server.database().at(kDeviceId);
    out.consumedAuthPairs = record.consumedCount(tmpl.levels[0]);
    out.consumedReservedPairs = record.consumedCount(tmpl.reserved);
    out.keysInSync = client.mapKey() == record.mapKey();
    return out;
}

std::vector<std::pair<std::string, RunOutcome>>
runFullSweep(const DeviceTemplate &tmpl, util::ThreadPool &pool)
{
    const net::FaultType kinds[] = {
        net::FaultType::Drop, net::FaultType::Duplicate,
        net::FaultType::Reorder, net::FaultType::Delay,
        net::FaultType::Corrupt};

    std::vector<std::pair<std::string, RunOutcome>> sweep;
    for (auto kind : kinds) {
        for (std::uint64_t frame = 0; frame < kBaselineFrames;
             ++frame) {
            net::FaultPlan plan(kPlanSeed);
            plan.add({kind, frame, kDelaySteps});
            std::string label = std::string(faultName(kind)) + "@" +
                                frameName(frame);
            sweep.emplace_back(label,
                               runFaultedExchange(tmpl, plan, pool));
        }
    }
    return sweep;
}

/** The sweep as the golden file spells it: one "[sweep]" line each. */
std::string
sweepLines(const std::vector<std::pair<std::string, RunOutcome>> &sweep)
{
    std::string out;
    for (const auto &[label, outcome] : sweep)
        out += "[sweep] " + label + ": " + outcome.serialize() + "\n";
    return out;
}

std::string
goldenSweep()
{
    std::ifstream in(AUTH_GOLDEN_DIR "/fault_sweep.txt");
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

} // namespace

class FaultSweep : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        tmpl = new DeviceTemplate(captureTemplate());
    }

    static void
    TearDownTestSuite()
    {
        delete tmpl;
        tmpl = nullptr;
    }

    static DeviceTemplate *tmpl;
};

DeviceTemplate *FaultSweep::tmpl = nullptr;

TEST_F(FaultSweep, BaselineIsSevenFramesAndClean)
{
    proto::Transcript tap;
    util::ThreadPool pool(1);
    auto out = runFaultedExchange(*tmpl, net::FaultPlan(kPlanSeed),
                                  pool, &tap);
    EXPECT_TRUE(out.quiesced);
    EXPECT_EQ(out.authStatus, "Ok");
    EXPECT_TRUE(out.accepted);
    EXPECT_EQ(out.remapsCommitted, 1u);
    EXPECT_EQ(out.retransmissions, 0u);
    EXPECT_EQ(out.pendingAfterGc, 0u);
    EXPECT_TRUE(out.keysInSync);
    // The tap still sees the canonical frames (and defines the frame
    // indices the sweep below injects at).
    EXPECT_EQ(tap.entries().size(), kBaselineFrames);
}

TEST_F(FaultSweep, EverySingleFaultCompletesOrFailsClean)
{
    util::ThreadPool pool(1);
    const auto baseline =
        runFaultedExchange(*tmpl, net::FaultPlan(kPlanSeed), pool);
    ASSERT_TRUE(baseline.quiesced);

    const auto sweep = runFullSweep(*tmpl, pool);
    std::cout << sweepLines(sweep);
    for (const auto &[label, out] : sweep) {
        SCOPED_TRACE(label);

        // No hang: the exchange reached quiescence in budget.
        EXPECT_TRUE(out.quiesced);

        // Clean terminal status, never stuck in flight.
        EXPECT_TRUE(out.authStatus == "Ok" ||
                    out.authStatus == "TimedOut");

        // A single fault never defeats authentication: the retry
        // machine always recovers the auth phase.
        EXPECT_EQ(out.authStatus, "Ok");
        EXPECT_TRUE(out.accepted);

        // No leaked session once deadlines have passed.
        EXPECT_EQ(out.pendingAfterGc, 0u);

        // Exactly-once retirement: every run burns exactly the
        // baseline's pair budget, faults never re-burn or double-burn.
        EXPECT_EQ(out.consumedAuthPairs, baseline.consumedAuthPairs);
        EXPECT_EQ(out.consumedReservedPairs,
                  baseline.consumedReservedPairs);

        // Two-phase remap never desyncs the key, even when the
        // exchange itself is abandoned.
        EXPECT_TRUE(out.keysInSync);

        // A remap either commits exactly once or fails cleanly with
        // the server session garbage-collected.
        EXPECT_LE(out.remapsCommitted, 1u);
        if (out.remapsCommitted == 0) {
            EXPECT_GE(out.expired + out.agentRemapTimeouts, 1u);
        }
    }
}

TEST_F(FaultSweep, SweepIsDeterministicAcrossRuns)
{
    // Two runs, at different server pool widths, each byte-identical
    // to the checked-in golden.
    const std::string golden = goldenSweep();
    ASSERT_FALSE(golden.empty()) << "missing tests/golden/fault_sweep.txt";
    for (unsigned width : {1u, 3u}) {
        SCOPED_TRACE(width);
        util::ThreadPool pool(width);
        EXPECT_EQ(sweepLines(runFullSweep(*tmpl, pool)), golden);
    }
}
