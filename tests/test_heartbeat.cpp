/**
 * @file
 * Tests for the continuous-authentication heartbeat subsystem: the
 * trust ledger and its graceful-degradation ladder (step-up ->
 * proactive remap -> forced re-enrollment -> revocation), missed-round
 * scoring, duplicate-proof replay, admin revoke/unlock, and the
 * determinism of drift-driven trust trajectories.
 */

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/loopback.hpp"
#include "server/server.hpp"
#include "sim/drift.hpp"
#include "substrate/drift_injector.hpp"
#include "substrate_test_util.hpp"

namespace fw = authenticache::firmware;
namespace sim = authenticache::sim;
namespace net = authenticache::net;
namespace proto = authenticache::protocol;
namespace srv = authenticache::server;
namespace sub = authenticache::substrate;
namespace testutil = authenticache::testutil;
namespace util = authenticache::util;

namespace {

/** A full device + server + agent harness over a loopback transport. */
struct HeartbeatRig
{
    std::unique_ptr<sub::FingerprintSubstrate> chip;
    fw::SimulatedMachine machine{4};
    fw::AuthenticacheClient client;
    srv::AuthenticationServer server;
    util::SimClock clock;
    util::ThreadPool pool{1};
    net::LoopbackTransport loop;
    net::LoopbackTransport::Client &conn;
    /** Server pushes (heartbeat rounds, remaps) toward the device. */
    proto::ReplySink &serverEnd;
    srv::DeviceAgent agent;

    static fw::ClientConfig clientConfig()
    {
        fw::ClientConfig cfg;
        cfg.selfTestAttempts = 8;
        return cfg;
    }

    explicit HeartbeatRig(const srv::ServerConfig &cfg,
                          std::uint64_t die_seed = 9,
                          std::uint64_t server_seed = 0x48B1)
        : chip(testutil::makeTestSubstrate(die_seed)),
          client(*chip, machine, clientConfig()),
          server(cfg, server_seed),
          loop(server.frontEnd(), {}),
          conn(*loop.connect()),
          serverEnd(conn.downlink(die_seed)),
          agent(die_seed, client, conn.uplink(die_seed))
    {
        client.boot();
        auto levels = srv::defaultChallengeLevels(client, 2);
        auto reserved = srv::defaultReservedLevel(client);
        server.enroll(die_seed, client, levels, {reserved});
        server.bindClock(&clock);
        agent.bindClock(&clock);
    }

    std::uint64_t deviceId() const { return agent_id; }

    void pump() { net::runExchange(conn, agent, pool); }

    /** Hand the agent every frame that has reached the device. */
    void receiveAll()
    {
        for (const auto &frame : conn.readFrames())
            agent.receive(frame.payload);
    }

    /** One simulated step: pump, advance, cadence tick, retries. */
    void step(bool pump_agent = true)
    {
        if (pump_agent)
            pump();
        else
            loop.pumpUntilIdle(pool);
        clock.advance(1);
        server.tickHeartbeats(serverEnd);
        server.tick();
        if (pump_agent)
            agent.tick();
    }

    std::uint64_t agent_id = 9;
};

srv::ServerConfig
baseConfig()
{
    srv::ServerConfig cfg;
    cfg.challengeBits = 128;
    cfg.verifier.pIntra = 0.08;
    return cfg;
}

} // namespace

TEST(Heartbeat, CleanSessionHoldsTrustHigh)
{
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.serverEnd);
    for (int s = 0; s < 40; ++s)
        rig.step();

    // A healthy device at nominal conditions oscillates near the
    // ceiling (an occasional marginal round costs a few points) and
    // never slides down the degradation ladder.
    const auto &record = rig.server.database().at(9);
    EXPECT_GE(record.trustScore(), cfg.trust.stepUpBelow);
    EXPECT_FALSE(record.revoked());
    EXPECT_FALSE(record.reenrollRequired());
    EXPECT_EQ(record.remapBudgetUsed(), 0u);
    EXPECT_GT(rig.server.sessions().heartbeatsClean(), 5u);
    EXPECT_LE(rig.server.sessions().heartbeatsFailed(), 1u);
    EXPECT_EQ(rig.server.sessions().revocations(), 0u);
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 1u);
    rig.receiveAll(); // Drain any verdict still in flight.
    ASSERT_TRUE(rig.agent.lastTrust().has_value());
    EXPECT_EQ(*rig.agent.lastTrust(), record.trustScore());
    EXPECT_GE(rig.agent.heartbeatsAnswered(), 5u);
}

TEST(Heartbeat, SilentClientDecaysToRevocation)
{
    // Disable the remap/re-enrollment tiers so pure decay reaches the
    // revocation floor: an abandoned (or cloned) session cannot hold
    // trust or burn CRPs forever.
    auto cfg = baseConfig();
    cfg.trust.remapBelow = 0;
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.serverEnd);
    for (int s = 0; s < 60 && rig.server.sessions().revocations() == 0;
         ++s)
        rig.step(/*pump_agent=*/false);

    const auto &record = rig.server.database().at(9);
    EXPECT_TRUE(record.revoked());
    EXPECT_EQ(rig.server.sessions().revocations(), 1u);
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 0u);
    EXPECT_GT(rig.server.sessions().heartbeatsFailed(), 2u);
    EXPECT_GT(rig.server.sessions().trustDecays(), 2u);

    // The queued Revoke reaches the agent once it finally pumps.
    rig.receiveAll();
    EXPECT_TRUE(rig.agent.revoked());

    // A revoked device is refused plain authentication too.
    rig.agent.requestAuthentication();
    rig.pump();
    ASSERT_FALSE(rig.agent.errors().empty());
    EXPECT_EQ(rig.agent.errors().back(), "device revoked");

    // And a fresh heartbeat session is refused.
    rig.server.startHeartbeat(9, rig.serverEnd);
    rig.receiveAll();
    EXPECT_EQ(rig.agent.errors().back(), "device revoked");
}

TEST(Heartbeat, SilentClientWithRemapTiersForcesReenrollment)
{
    // Under the default policy the remap tier catches a decaying
    // session twice (budget 2) before trust can ever cross the
    // revocation floor, so an unresponsive device lands in forced
    // re-enrollment rather than revocation.
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.serverEnd);
    for (int s = 0;
         s < 80 && !rig.server.database().at(9).reenrollRequired();
         ++s)
        rig.step(/*pump_agent=*/false);

    const auto &record = rig.server.database().at(9);
    EXPECT_TRUE(record.reenrollRequired());
    EXPECT_FALSE(record.revoked());
    EXPECT_EQ(record.remapBudgetUsed(), cfg.trust.remapBudget);
    EXPECT_EQ(rig.server.sessions().proactiveRemaps(),
              cfg.trust.remapBudget);
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 0u);
}

TEST(Heartbeat, AdminUnlockClearsRevocationAndRestoresTrust)
{
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.revokeDevice(9);
    EXPECT_TRUE(rig.server.database().at(9).revoked());
    EXPECT_EQ(rig.server.sessions().revocations(), 1u);

    rig.server.unlockDevice(9);
    const auto &record = rig.server.database().at(9);
    EXPECT_FALSE(record.revoked());
    EXPECT_FALSE(record.reenrollRequired());
    EXPECT_EQ(record.trustScore(), cfg.trust.max);
    EXPECT_EQ(rig.server.adminUnlocks(), 1u);

    // And the device authenticates again.
    rig.agent.requestAuthentication();
    rig.pump();
    ASSERT_TRUE(rig.agent.lastDecision().has_value());
    EXPECT_TRUE(rig.agent.lastDecision()->accepted);
}

TEST(Heartbeat, StepUpSessionsUseFullWidthChallenges)
{
    // A session opened below the step-up threshold issues full-width
    // challenges from the first round.
    auto cfg = baseConfig();
    cfg.trust.initial = cfg.trust.stepUpBelow - 1;
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.serverEnd);

    auto msgs = rig.conn.readMessages();
    ASSERT_EQ(msgs.size(), 1u);
    auto *hb = std::get_if<proto::Heartbeat>(&msgs[0].second);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(hb->challenge.size(), cfg.challengeBits);
    EXPECT_EQ(hb->seq, 1u);
}

TEST(Heartbeat, NominalSessionsUseLowCostChallenges)
{
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.serverEnd);

    auto msgs = rig.conn.readMessages();
    ASSERT_EQ(msgs.size(), 1u);
    auto *hb = std::get_if<proto::Heartbeat>(&msgs[0].second);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(hb->challenge.size(), cfg.trust.heartbeatBits);
    EXPECT_LT(cfg.trust.heartbeatBits, cfg.challengeBits);
}

TEST(Heartbeat, ProactiveRemapFiresAndCompletes)
{
    // Isolate the remap tier: no revocation, a tiny decay per missed
    // round, and an opening trust just above the remap threshold.
    auto cfg = baseConfig();
    cfg.trust.initial = 36;
    cfg.trust.failPenalty = 2;
    cfg.trust.revokeBelow = 0;
    cfg.trust.remapBudget = 1;
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.serverEnd);

    // Miss one round: 36 -> 34 < 35 schedules the remap and grants
    // remapRecovery back.
    for (int s = 0;
         s < 20 && rig.server.sessions().proactiveRemaps() == 0; ++s)
        rig.step(/*pump_agent=*/false);
    EXPECT_EQ(rig.server.sessions().proactiveRemaps(), 1u);
    const auto &record = rig.server.database().at(9);
    EXPECT_EQ(record.remapBudgetUsed(), 1u);
    EXPECT_GE(record.trustScore(), 34u + cfg.trust.remapRecovery -
                                       cfg.trust.failPenalty);

    // The queued RemapRequest completes once the agent pumps.
    for (int s = 0; s < 10; ++s)
        rig.step();
    EXPECT_EQ(rig.agent.remapsProcessed(), 1u);
    EXPECT_EQ(rig.server.remapsCommitted(), 1u);
}

TEST(Heartbeat, BudgetExhaustionForcesReenrollment)
{
    auto cfg = baseConfig();
    cfg.trust.initial = 36;
    cfg.trust.failPenalty = 2;
    cfg.trust.revokeBelow = 0;
    cfg.trust.remapBudget = 0;
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.serverEnd);
    for (int s = 0; s < 20 &&
                    !rig.server.database().at(9).reenrollRequired();
         ++s)
        rig.step(/*pump_agent=*/false);

    const auto &record = rig.server.database().at(9);
    EXPECT_TRUE(record.reenrollRequired());
    EXPECT_FALSE(record.revoked());
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 0u);

    // Auth and a fresh heartbeat are both refused until re-enrollment.
    rig.receiveAll();
    rig.agent.requestAuthentication();
    rig.pump();
    ASSERT_FALSE(rig.agent.errors().empty());
    EXPECT_EQ(rig.agent.errors().back(), "re-enrollment required");

    rig.server.startHeartbeat(9, rig.serverEnd);
    rig.receiveAll();
    EXPECT_EQ(rig.agent.errors().back(), "re-enrollment required");
}

TEST(Heartbeat, DuplicateProofReplaysCachedVerdict)
{
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.serverEnd);

    // Answer round 1, capturing the proof frame for replay.
    auto msgs = rig.conn.readMessages();
    ASSERT_EQ(msgs.size(), 1u);
    auto *hb = std::get_if<proto::Heartbeat>(&msgs[0].second);
    ASSERT_NE(hb, nullptr);
    auto outcome = rig.client.authenticate(hb->challenge);
    ASSERT_TRUE(outcome.ok());
    proto::HeartbeatProof proof;
    proof.nonce = hb->nonce;
    proof.response = outcome.response;
    rig.conn.sendMessage(9, proof);
    rig.loop.pump(rig.pool);
    const std::uint32_t trust_after =
        rig.server.database().at(9).trustScore();

    // The duplicate replays the cached TrustUpdate and never
    // re-scores the ledger.
    rig.conn.sendMessage(9, proof);
    rig.loop.pump(rig.pool);
    EXPECT_EQ(rig.server.database().at(9).trustScore(), trust_after);
    EXPECT_EQ(rig.server.duplicateCompletions(), 1u);

    auto verdicts = rig.conn.readMessages(); // Original, replayed.
    ASSERT_EQ(verdicts.size(), 2u);
    auto *v1 = std::get_if<proto::TrustUpdate>(&verdicts[0].second);
    auto *v2 = std::get_if<proto::TrustUpdate>(&verdicts[1].second);
    ASSERT_NE(v1, nullptr);
    ASSERT_NE(v2, nullptr);
    EXPECT_EQ(v1->trust, v2->trust);
    EXPECT_EQ(v1->nonce, v2->nonce);
}

TEST(Heartbeat, StopTearsDownSession)
{
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.serverEnd);
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 1u);
    EXPECT_TRUE(rig.server.stopHeartbeat(9));
    EXPECT_FALSE(rig.server.stopHeartbeat(9));
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 0u);

    // After the stop, ticking past the old due time scores nothing.
    for (int s = 0; s < 10; ++s)
        rig.step(/*pump_agent=*/false);
    EXPECT_EQ(rig.server.sessions().heartbeatsFailed(), 0u);
}

TEST(Heartbeat, DriftTrajectoryIsDeterministic)
{
    // Two independent rigs with identical seeds and an identical
    // drift schedule must produce byte-identical wire transcripts and
    // identical trust trajectories -- the foundation of the drift
    // sweep's reproducibility gate.
    auto run = [](std::vector<std::uint8_t> &transcript_bytes,
                  std::vector<std::uint32_t> &trust_trajectory) {
        auto cfg = baseConfig();
        HeartbeatRig rig(cfg);
        proto::Transcript transcript;
        rig.loop.attachTranscript(&transcript);

        sim::DriftScheduleConfig dcfg;
        dcfg.rampSteps = 40;
        dcfg.holdSteps = 100;
        dcfg.returnToNominal = false;
        sub::DriftInjector drift(*rig.chip,
                                 sim::DriftSchedule(0xD21F7, 9, dcfg));
        rig.server.startHeartbeat(9, rig.serverEnd);
        for (int s = 0; s < 80; ++s) {
            rig.pump();
            trust_trajectory.push_back(
                rig.server.database().at(9).trustScore());
            rig.clock.advance(1);
            drift.apply(rig.clock.now());
            rig.server.tickHeartbeats(rig.serverEnd);
            rig.server.tick();
            rig.agent.tick();
        }
        for (const auto &entry : transcript.entries())
            transcript_bytes.insert(transcript_bytes.end(),
                                    entry.frame.begin(),
                                    entry.frame.end());
    };

    std::vector<std::uint8_t> bytes_a, bytes_b;
    std::vector<std::uint32_t> trust_a, trust_b;
    run(bytes_a, trust_a);
    run(bytes_b, trust_b);
    EXPECT_EQ(trust_a, trust_b);
    EXPECT_EQ(bytes_a, bytes_b);
    EXPECT_FALSE(bytes_a.empty());
}

TEST(DriftSchedule, PureAndSeedDeterministic)
{
    sim::DriftScheduleConfig cfg;
    cfg.rampSteps = 10;
    cfg.holdSteps = 5;
    cfg.phaseJitterSteps = 4;

    sim::DriftSchedule a(42, 7, cfg);
    sim::DriftSchedule b(42, 7, cfg);
    EXPECT_EQ(a.phaseSteps(), b.phaseSteps());
    EXPECT_EQ(a.peakScale(), b.peakScale());
    for (std::uint64_t step : {0u, 3u, 9u, 14u, 20u, 100u}) {
        auto ca = a.at(step);
        auto cb = b.at(step);
        EXPECT_EQ(ca.temperatureDeltaC, cb.temperatureDeltaC);
        EXPECT_EQ(ca.agingYears, cb.agingYears);
        EXPECT_EQ(ca.measurementSigmaMv, cb.measurementSigmaMv);
    }

    // Distinct devices draw distinct phase/peak jitter (with a
    // non-degenerate config this collides with tiny probability; the
    // chosen seeds do not collide).
    sim::DriftSchedule c(42, 8, cfg);
    EXPECT_TRUE(a.phaseSteps() != c.phaseSteps() ||
                a.peakScale() != c.peakScale());
}

TEST(DriftSchedule, RampHoldAndReturnShape)
{
    sim::DriftScheduleConfig cfg;
    cfg.peakTemperatureDeltaC = 20.0;
    cfg.peakAgingYears = 1.0;
    cfg.peakSigmaMv = 3.0;
    cfg.rampSteps = 10;
    cfg.holdSteps = 4;
    cfg.phaseJitterSteps = 0; // Deterministic phase for shape checks.
    cfg.peakJitter = 0.0;
    sim::DriftSchedule sched(1, 1, cfg);

    auto at0 = sched.at(0);
    EXPECT_EQ(at0.temperatureDeltaC, 0.0);
    EXPECT_EQ(at0.measurementSigmaMv, 1.0);

    auto mid = sched.at(5);
    EXPECT_GT(mid.temperatureDeltaC, 0.0);
    EXPECT_LT(mid.temperatureDeltaC, 20.0);

    auto peak = sched.at(10);
    EXPECT_DOUBLE_EQ(peak.temperatureDeltaC, 20.0);
    EXPECT_DOUBLE_EQ(peak.agingYears, 1.0);
    EXPECT_DOUBLE_EQ(peak.measurementSigmaMv, 3.0);

    auto held = sched.at(14);
    EXPECT_DOUBLE_EQ(held.temperatureDeltaC, 20.0);

    auto returned = sched.at(24);
    EXPECT_DOUBLE_EQ(returned.temperatureDeltaC, 0.0);
    EXPECT_DOUBLE_EQ(returned.measurementSigmaMv, 1.0);

    // Without returnToNominal the excursion persists.
    cfg.returnToNominal = false;
    sim::DriftSchedule hold(1, 1, cfg);
    EXPECT_DOUBLE_EQ(hold.at(1000).temperatureDeltaC, 20.0);
}

TEST(Heartbeat, RevokeMessageRoundTripsThroughAgent)
{
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.serverEnd);
    rig.pump();
    EXPECT_FALSE(rig.agent.revoked());

    rig.server.revokeDevice(9);
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 0u);

    // An admin revocation does not stream a Revoke (the session is
    // torn down server-side); the agent discovers it on its next
    // exchange attempt.
    rig.agent.requestAuthentication();
    rig.pump();
    ASSERT_FALSE(rig.agent.errors().empty());
    EXPECT_EQ(rig.agent.errors().back(), "device revoked");
}
