/**
 * @file
 * Unit tests for the session-reliability layer: the deterministic
 * retry policy, frames crossing the loopback transport (FIFO order,
 * server pushes) and its fault hook, client-side timeout
 * with a clean TimedOut status, server-side session expiry, and the
 * composition of the lockout policy with duplicated frames (a
 * retransmitted rejected response must never count as two failures).
 */

#include <memory>

#include <gtest/gtest.h>

#include "net/loopback.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"

namespace fw = authenticache::firmware;
namespace sim = authenticache::sim;
namespace core = authenticache::core;
namespace net = authenticache::net;
namespace proto = authenticache::protocol;
namespace srv = authenticache::server;
namespace util = authenticache::util;
using authenticache::util::SimClock;

namespace {

sim::ChipConfig
smallChip()
{
    sim::ChipConfig cfg;
    cfg.cacheBytes = 256 * 1024;
    return cfg;
}

std::vector<std::uint8_t>
testFrame()
{
    return proto::encodeMessage(proto::AuthRequest{77});
}

/**
 * A server with no devices behind a loopback transport: every
 * AuthRequest draws an ErrorMsg on its own stream, so the reply
 * streams show which client frames crossed the fault hook, and
 * downlink pushes show the server->client direction.
 */
struct FaultRig
{
    explicit FaultRig(const net::FaultPlan &plan = net::FaultPlan())
    {
        loop.setFaultPlan(plan);
    }

    /** Pump once and return the streams of the frames that arrive. */
    std::vector<std::uint64_t>
    replyStreams()
    {
        loop.pump(pool);
        std::vector<std::uint64_t> out;
        for (const auto &frame : conn.readFrames())
            out.push_back(frame.stream);
        return out;
    }

    srv::AuthenticationServer server{srv::ServerConfig{}, 1};
    net::LoopbackTransport loop{server.frontEnd(), {}};
    net::LoopbackTransport::Client &conn = *loop.connect();
    util::ThreadPool pool{1};
};

} // namespace

TEST(RetryPolicy, ScheduleIsDeterministic)
{
    srv::RetryPolicy p;
    for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
        EXPECT_EQ(p.deadlineFor(100, attempt),
                  p.deadlineFor(100, attempt));
    }
}

TEST(RetryPolicy, FirstAttemptHasNoBackoff)
{
    srv::RetryPolicy p;
    std::uint64_t d = p.deadlineFor(0, 0);
    EXPECT_GE(d, p.timeoutSteps);
    EXPECT_LE(d, p.timeoutSteps + p.jitterSteps);
}

TEST(RetryPolicy, BackoffIsBoundedByCap)
{
    srv::RetryPolicy p;
    for (std::uint32_t attempt = 0; attempt < 100; ++attempt) {
        std::uint64_t d = p.deadlineFor(0, attempt);
        EXPECT_GE(d, p.timeoutSteps);
        EXPECT_LE(d, p.timeoutSteps + p.backoffCapSteps +
                         p.jitterSteps);
    }
    // Deep into the schedule the backoff saturates at the cap.
    std::uint64_t deep = p.deadlineFor(0, 90);
    EXPECT_GE(deep, p.timeoutSteps + p.backoffCapSteps);
}

TEST(Channel, FifoBothDirections)
{
    FaultRig rig;
    rig.conn.sendMessage(1, proto::AuthRequest{1});
    rig.conn.sendMessage(2, proto::AuthRequest{2});
    EXPECT_EQ(rig.replyStreams(), (std::vector<std::uint64_t>{1, 2}));
    EXPECT_TRUE(rig.replyStreams().empty());

    rig.conn.downlink(7).send(proto::AuthDecision{5, true, 0});
    auto pushed = rig.conn.readMessages();
    ASSERT_EQ(pushed.size(), 1u);
    EXPECT_EQ(pushed[0].first, 7u);
    EXPECT_TRUE(std::get<proto::AuthDecision>(pushed[0].second).accepted);
}

TEST(Channel, PushSinkOutlivesStreamRetirement)
{
    FaultRig rig;
    proto::ReplySink &push = rig.conn.downlink(5);
    // A request on the push's stream ends with a terminal error, so
    // the core retires its own sink for stream 5.
    rig.conn.sendMessage(5, proto::AuthRequest{1});
    EXPECT_EQ(rig.replyStreams(), (std::vector<std::uint64_t>{5}));
    EXPECT_EQ(rig.loop.counters().sinksRetired, 1u);

    // The held push sink is unaffected, even by its own terminal send.
    push.send(proto::ErrorMsg{"first"});
    push.send(proto::AuthDecision{5, true, 0});
    auto pushed = rig.conn.readMessages();
    ASSERT_EQ(pushed.size(), 2u);
    EXPECT_EQ(pushed[1].first, 5u);
    EXPECT_TRUE(std::get<proto::AuthDecision>(pushed[1].second).accepted);
}

TEST(Channel, DropInjection)
{
    FaultRig rig(net::FaultPlan().add({net::FaultType::Drop, 0, 0}));
    rig.conn.sendMessage(1, proto::AuthRequest{1});
    EXPECT_TRUE(rig.replyStreams().empty());
    rig.conn.sendMessage(2, proto::AuthRequest{2});
    EXPECT_EQ(rig.replyStreams(), (std::vector<std::uint64_t>{2}));
}

TEST(Channel, CorruptionInjection)
{
    // The server answers the damaged request with a decode error on
    // the request's own stream; the connection survives.
    FaultRig rig(net::FaultPlan().add({net::FaultType::Corrupt, 0, 0}));
    rig.conn.sendMessage(3, proto::AuthRequest{77});
    rig.loop.pump(rig.pool);
    auto replies = rig.conn.readMessages();
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].first, 3u);
    auto *err = std::get_if<proto::ErrorMsg>(&replies[0].second);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->reason.rfind("decode: ", 0), 0u);
    EXPECT_EQ(rig.loop.counters().codecErrors, 0u);
    EXPECT_FALSE(rig.conn.serverClosed());
}

TEST(ChannelFaults, DropDiscardsExactlyTheTargetFrame)
{
    FaultRig rig(net::FaultPlan(1).add({net::FaultType::Drop, 1, 0}));
    for (std::uint64_t stream = 1; stream <= 3; ++stream)
        rig.conn.sendMessage(stream, proto::AuthRequest{77});
    EXPECT_EQ(rig.replyStreams(), (std::vector<std::uint64_t>{1, 3}));
    EXPECT_EQ(rig.loop.faultCounters().drops, 1u);
    EXPECT_TRUE(rig.loop.idle());
    EXPECT_EQ(rig.loop.heldFrames(), 0u);
}

TEST(ChannelFaults, DuplicateDeliversTwice)
{
    FaultRig rig(
        net::FaultPlan(1).add({net::FaultType::Duplicate, 0, 0}));
    rig.conn.downlink(5).send(proto::AuthRequest{77});
    auto frames = rig.conn.readFrames();
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].payload, testFrame());
    EXPECT_EQ(frames[1].payload, testFrame());
    EXPECT_EQ(rig.loop.faultCounters().duplicates, 1u);
}

TEST(ChannelFaults, ReorderJumpsTheQueue)
{
    FaultRig rig(net::FaultPlan(1).add({net::FaultType::Reorder, 1, 0}));
    rig.conn.sendMessage(1, proto::AuthRequest{77});
    rig.conn.sendMessage(2, proto::AuthRequest{77});
    EXPECT_EQ(rig.replyStreams(), (std::vector<std::uint64_t>{2, 1}));
    EXPECT_EQ(rig.loop.faultCounters().reorders, 1u);
}

TEST(ChannelFaults, DelayHoldsFrameUntilRelease)
{
    SimClock clock;
    FaultRig rig(net::FaultPlan(1).add({net::FaultType::Delay, 0, 5}));
    rig.loop.bindClock(&clock);
    rig.conn.sendMessage(1, proto::AuthRequest{77});
    EXPECT_TRUE(rig.replyStreams().empty());
    EXPECT_EQ(rig.loop.heldFrames(), 1u); // Held, not lost.
    clock.advance(4);
    EXPECT_TRUE(rig.replyStreams().empty());
    clock.advance(1);
    EXPECT_EQ(rig.replyStreams(), (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(rig.loop.heldFrames(), 0u);
    EXPECT_EQ(rig.loop.faultCounters().delays, 1u);
}

TEST(ChannelFaults, CorruptionIsSeededAndReplayable)
{
    // Corrupt damages the message, not the wire frame: the frame
    // arrives (its outer CRC is valid) and the message CRC rejects it.
    auto corruptOnce = [](std::uint64_t seed) {
        FaultRig rig(
            net::FaultPlan(seed).add({net::FaultType::Corrupt, 0, 0}));
        rig.conn.downlink(5).send(proto::AuthRequest{77});
        auto frames = rig.conn.readFrames();
        EXPECT_EQ(frames.size(), 1u);
        return frames.at(0).payload;
    };
    auto one = corruptOnce(42);
    auto two = corruptOnce(42);
    EXPECT_EQ(one, two);       // Same seed: bit-identical damage.
    EXPECT_NE(one, testFrame()); // But damage did happen.
    EXPECT_NE(corruptOnce(43), one); // Different seed, different bits.
    EXPECT_THROW(proto::decodeMessage(one), proto::DecodeError);
}

class RetryMachine : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        chip = std::make_unique<sim::SimulatedChip>(smallChip(), 31);
        machine = std::make_unique<fw::SimulatedMachine>(4);
        fw::ClientConfig ccfg;
        ccfg.selfTestAttempts = 8;
        client = std::make_unique<fw::AuthenticacheClient>(
            *chip, *machine, ccfg);
        client->boot();

        srv::ServerConfig scfg;
        scfg.challengeBits = 32;
        scfg.verifier.pIntra = 0.08;
        scfg.sessionTimeoutSteps = 40;
        server =
            std::make_unique<srv::AuthenticationServer>(scfg, 11);
        auto levels = srv::defaultChallengeLevels(*client, 1);
        server->enroll(4, *client, levels,
                       {srv::defaultReservedLevel(*client)});

        server->bindClock(&clock);
        loop = std::make_unique<net::LoopbackTransport>(
            server->frontEnd(), net::TransportConfig{});
        loop->bindClock(&clock);
        conn = loop->connect();
        agent = std::make_unique<srv::DeviceAgent>(4, *client,
                                                   conn->uplink(4));
        agent->bindClock(&clock);
    }

    SimClock clock;
    std::unique_ptr<sim::SimulatedChip> chip;
    std::unique_ptr<fw::SimulatedMachine> machine;
    std::unique_ptr<fw::AuthenticacheClient> client;
    std::unique_ptr<srv::AuthenticationServer> server;
    std::unique_ptr<net::LoopbackTransport> loop;
    net::LoopbackTransport::Client *conn = nullptr;
    std::unique_ptr<srv::DeviceAgent> agent;
    util::ThreadPool pool{1};
};

TEST_F(RetryMachine, ExhaustedRetriesEndWithTimedOut)
{
    // Every AuthRequest attempt is lost: the agent must give up with
    // a clean TimedOut status instead of wedging the exchange.
    net::FaultPlan plan(9);
    for (std::uint64_t i = 0; i < 8; ++i)
        plan.add({net::FaultType::Drop, i, 0});
    loop->setFaultPlan(plan);

    agent->requestAuthentication();
    auto result =
        net::runExchangeSteps(*server, *conn, *agent, clock, 400, pool);
    EXPECT_TRUE(result.quiesced);
    EXPECT_FALSE(agent->sessionActive());
    ASSERT_TRUE(agent->lastAuthStatus().has_value());
    EXPECT_EQ(*agent->lastAuthStatus(),
              fw::AuthOutcome::Status::TimedOut);
    EXPECT_FALSE(agent->lastDecision().has_value());
    EXPECT_GE(agent->retransmissions(), 1u);
}

TEST_F(RetryMachine, SingleLossRecoversViaRetransmission)
{
    loop->setFaultPlan(
        net::FaultPlan(9).add({net::FaultType::Drop, 0, 0}));
    agent->requestAuthentication();
    auto result =
        net::runExchangeSteps(*server, *conn, *agent, clock, 400, pool);
    EXPECT_TRUE(result.quiesced);
    ASSERT_TRUE(agent->lastDecision().has_value());
    EXPECT_TRUE(agent->lastDecision()->accepted);
    EXPECT_EQ(agent->retransmissions(), 1u);
}

TEST_F(RetryMachine, ServerExpiresAbandonedSessions)
{
    // A request whose device never answers the challenge is garbage
    // collected once its deadline passes -- nothing leaks.
    conn->sendMessage(4, proto::AuthRequest{4});
    loop->pump(pool);
    EXPECT_EQ(server->pendingSessions(), 1u);

    clock.advance(39);
    server->tick();
    EXPECT_EQ(server->pendingSessions(), 1u); // Not yet due.

    clock.advance(2);
    server->tick();
    EXPECT_EQ(server->pendingSessions(), 0u);
    EXPECT_EQ(server->sessionsExpired(), 1u);

    // The expired nonce is dead: answering it now is rejected.
    (void)conn->readFrames(); // Discard the challenge.
    proto::ResponseMsg late;
    late.nonce = 0xDEAD;
    late.response = core::Response(32);
    conn->sendMessage(4, late);
    loop->pump(pool);
    EXPECT_TRUE(server->reports().empty());
}

class LockoutReplay : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        chip = std::make_unique<sim::SimulatedChip>(smallChip(), 31);
        machine = std::make_unique<fw::SimulatedMachine>(4);
        fw::ClientConfig ccfg;
        ccfg.selfTestAttempts = 8;
        client = std::make_unique<fw::AuthenticacheClient>(
            *chip, *machine, ccfg);
        client->boot();

        srv::ServerConfig scfg;
        scfg.challengeBits = 64;
        scfg.lockoutThreshold = 2;
        server =
            std::make_unique<srv::AuthenticationServer>(scfg, 11);
        auto levels = srv::defaultChallengeLevels(*client, 1);
        server->enroll(4, *client, levels,
                       {srv::defaultReservedLevel(*client)});
        loop = std::make_unique<net::LoopbackTransport>(
            server->frontEnd(), net::TransportConfig{});
        conn = loop->connect();
    }

    /** Send one frame and service it as a one-frame batch. */
    void
    serve(const proto::Message &m)
    {
        conn->sendMessage(4, m);
        loop->pump(pool);
    }

    /** Open a session and build a response that must be rejected. */
    proto::ResponseMsg
    bogusResponse()
    {
        (void)conn->readFrames(); // Decisions from earlier rounds.
        serve(proto::AuthRequest{4});
        auto replies = conn->readMessages();
        EXPECT_EQ(replies.size(), 1u);
        auto *ch = std::get_if<proto::ChallengeMsg>(&replies.at(0).second);
        EXPECT_NE(ch, nullptr);
        proto::ResponseMsg bogus;
        bogus.nonce = ch->nonce;
        bogus.response = core::Response(ch->challenge.size());
        for (std::size_t i = 0; i < bogus.response.size(); i += 2)
            bogus.response.flip(i);
        return bogus;
    }

    std::unique_ptr<sim::SimulatedChip> chip;
    std::unique_ptr<fw::SimulatedMachine> machine;
    std::unique_ptr<fw::AuthenticacheClient> client;
    std::unique_ptr<srv::AuthenticationServer> server;
    std::unique_ptr<net::LoopbackTransport> loop;
    net::LoopbackTransport::Client *conn = nullptr;
    util::ThreadPool pool{1};
};

TEST_F(LockoutReplay, DuplicatedRejectedResponseCountsOnce)
{
    // First rejection counts...
    auto bogus = bogusResponse();
    serve(bogus);
    EXPECT_EQ(server->database().at(4).consecutiveFailures(), 1u);
    EXPECT_FALSE(server->database().at(4).locked());

    // ...but replaying the identical frame (a retransmission or a
    // network duplicate) is served from the completed cache and must
    // NOT count as a second failure toward the lockout threshold.
    serve(bogus);
    EXPECT_EQ(server->database().at(4).consecutiveFailures(), 1u);
    EXPECT_FALSE(server->database().at(4).locked());
    EXPECT_EQ(server->duplicateCompletions(), 1u);
    EXPECT_EQ(server->reports().size(), 1u);

    // A genuinely fresh failure still advances the policy.
    serve(bogusResponse());
    EXPECT_EQ(server->database().at(4).consecutiveFailures(), 2u);
    EXPECT_TRUE(server->database().at(4).locked());
}

TEST_F(LockoutReplay, DuplicateChallengeReissueDoesNotBurnPairs)
{
    // Satellite invariant restated at the unit level: a retransmitted
    // AuthRequest never consumes fresh challenge pairs.
    serve(proto::AuthRequest{4});
    auto consumedBefore = server->database().at(4).consumedCount(
        server->database().at(4).challengeLevels().front());
    for (int i = 0; i < 5; ++i) {
        serve(proto::AuthRequest{4});
    }
    EXPECT_EQ(server->database().at(4).consumedCount(
                  server->database().at(4).challengeLevels().front()),
              consumedBefore);
    EXPECT_EQ(server->duplicateRequests(), 5u);
}
