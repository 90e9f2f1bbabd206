/**
 * @file
 * Chaos suite for the real-socket transport: the fault classes the
 * loopback transport injects via FaultPlan (drop, duplicate, corrupt,
 * delay), recreated at the socket layer against a live EpollTransport,
 * plus the failure shapes only a real wire has -- mid-frame
 * disconnects, half-open peers, slow-loris single-byte writers, and
 * reconnect-with-session-resume.
 *
 * The properties under test are the server-side invariants the
 * loopback suites establish, now asserted over TCP: a torn or
 * corrupted connection dies alone (other tenants keep
 * authenticating), duplicate frames hit the session dedup path
 * idempotently, session GC reclaims sessions whose peer vanished, and
 * an authentication started on one connection completes on another
 * (sessions belong to devices, not sockets).
 *
 * Everything runs single-threaded around a non-blocking pump, so the
 * suite is free of sleeps and wall-clock timing; waiting is bounded
 * pump iterations with millisecond poll budgets.
 */

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/remap.hpp"
#include "mc/mapgen.hpp"
#include "net/epoll_transport.hpp"
#include "net/socket_client.hpp"
#include "server/server.hpp"
#include "util/sim_clock.hpp"

namespace net = authenticache::net;
namespace proto = authenticache::protocol;
namespace core = authenticache::core;
namespace srv = authenticache::server;
namespace mc = authenticache::mc;
namespace util = authenticache::util;

namespace {

constexpr std::uint64_t kServerSeed = 0xC4A05;
constexpr std::uint64_t kFirstId = 701;
constexpr core::VddMv kLevel = 700.0;
constexpr std::uint64_t kSessionTimeout = 50;

srv::ServerConfig
serverConfig()
{
    srv::ServerConfig cfg;
    cfg.challengeBits = 32;
    cfg.remapSecretBits = 8;
    cfg.fuzzyRepetition = 5;
    cfg.verifier.pIntra = 0.08;
    cfg.sessionShards = 4;
    cfg.sessionTimeoutSteps = kSessionTimeout;
    return cfg;
}

struct Rig
{
    srv::ServerConfig cfg;
    srv::AuthenticationServer server;
    util::SimClock clock;
    net::EpollTransport transport;
    util::ThreadPool pool{2};

    explicit Rig(std::size_t n_devices)
        : cfg(serverConfig()), server(cfg, kServerSeed),
          transport(server.frontEnd(), net::TransportConfig{})
    {
        server.bindClock(&clock);
        core::CacheGeometry geom(64 * 1024);
        for (std::size_t i = 0; i < n_devices; ++i) {
            std::uint64_t id = kFirstId + i;
            util::Rng mr = util::Rng::forStream(0xD1CE, id);
            server.database().enroll(srv::DeviceRecord(
                id, mc::randomErrorMap(geom, kLevel, 40, mr),
                {kLevel}, {}));
        }
    }

    /** Pump @p cycles service cycles (1 ms poll budget each). */
    void
    pumpFor(int cycles)
    {
        for (int i = 0; i < cycles; ++i)
            transport.pump(pool, 1);
    }

    /** Pump until @p client yields a reply or the budget runs out. */
    std::optional<std::pair<std::uint64_t, proto::Message>>
    awaitReply(net::SocketClient &client, int budget = 2000)
    {
        for (int i = 0; i < budget; ++i) {
            transport.pump(pool, 1);
            if (auto m = client.readMessage(2))
                return m;
            if (client.failed())
                return std::nullopt;
        }
        return std::nullopt;
    }
};

/** The response an honest, noiseless device returns. */
util::BitVec
honestResponse(const srv::DeviceRecord &rec, const core::Challenge &ch)
{
    core::LogicalRemap remap(rec.mapKey(),
                             rec.physicalMap().geometry());
    return core::evaluate(remap.mapErrorMap(rec.physicalMap()), ch);
}

/** Run one full auth for @p device over @p client; expect accept. */
void
completeAuth(Rig &rig, net::SocketClient &client,
             std::uint64_t device)
{
    ASSERT_TRUE(client.sendMessage(
        device, proto::Message{proto::AuthRequest{device}}));
    auto challenge = rig.awaitReply(client);
    ASSERT_TRUE(challenge.has_value());
    auto *ch = std::get_if<proto::ChallengeMsg>(&challenge->second);
    ASSERT_NE(ch, nullptr);

    auto resp = honestResponse(rig.server.database().at(device),
                               ch->challenge);
    ASSERT_TRUE(client.sendMessage(
        device,
        proto::Message{proto::ResponseMsg{ch->nonce, resp}}));
    auto decision = rig.awaitReply(client);
    ASSERT_TRUE(decision.has_value());
    auto *d = std::get_if<proto::AuthDecision>(&decision->second);
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->accepted);
}

} // namespace

TEST(TransportChaos, HonestAuthOverRealSocket)
{
    Rig rig(1);
    net::SocketClient client;
    ASSERT_TRUE(client.connectTo(rig.transport.port()));
    completeAuth(rig, client, kFirstId);
    EXPECT_EQ(rig.transport.counters().codecErrors, 0u);
}

TEST(TransportChaos, MidFrameDisconnectDiesAlone)
{
    Rig rig(2);
    net::SocketClient victim;
    net::SocketClient bystander;
    ASSERT_TRUE(victim.connectTo(rig.transport.port()));
    ASSERT_TRUE(bystander.connectTo(rig.transport.port()));
    rig.pumpFor(5); // Both connections accepted.

    // The victim sends half a frame, lets the server ingest it, then
    // resets the connection mid-frame.
    auto frame = net::encodeWireMessage(
        kFirstId, proto::Message{proto::AuthRequest{kFirstId}});
    ASSERT_TRUE(victim.writeRaw(
        std::span<const std::uint8_t>(frame.data(),
                                      frame.size() / 2)));
    rig.pumpFor(10);
    victim.abort();
    rig.pumpFor(20);

    // The torn connection is gone; the bystander is untouched and
    // authenticates end to end.
    EXPECT_EQ(rig.transport.connectionCount(), 1u);
    completeAuth(rig, bystander, kFirstId + 1);
    EXPECT_EQ(rig.transport.counters().codecErrors, 0u);
}

TEST(TransportChaos, CorruptFrameKillsOnlyItsConnection)
{
    Rig rig(2);
    net::SocketClient evil;
    net::SocketClient honest;
    ASSERT_TRUE(evil.connectTo(rig.transport.port()));
    ASSERT_TRUE(honest.connectTo(rig.transport.port()));
    rig.pumpFor(5);

    // Corruption at the socket layer: one flipped payload byte under
    // the outer CRC. The wire CRC convicts the frame; the transport
    // treats it as connection-fatal. (The loopback's FaultPlan Corrupt
    // re-frames the damaged message instead, so the message's own CRC
    // catches it and the connection survives.)
    auto frame = net::encodeWireMessage(
        kFirstId, proto::Message{proto::AuthRequest{kFirstId}});
    frame[net::kWireHeaderBytes + 2] ^= 0x10;
    ASSERT_TRUE(evil.writeRaw(frame));
    rig.pumpFor(20);

    EXPECT_EQ(rig.transport.counters().codecErrors, 1u);
    EXPECT_EQ(rig.transport.connectionCount(), 1u);

    // The poisoned peer gets a clean close, not a reply.
    EXPECT_FALSE(evil.readMessage(10).has_value());

    completeAuth(rig, honest, kFirstId + 1);
}

TEST(TransportChaos, GarbagePreambleRejected)
{
    Rig rig(1);
    net::SocketClient client;
    ASSERT_TRUE(client.connectTo(rig.transport.port()));
    rig.pumpFor(5);

    std::vector<std::uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF, 0x00,
                                      0x01, 0x02, 0x03, 0x04, 0x05,
                                      0x06, 0x07, 0x08, 0x09, 0x0A,
                                      0x0B, 0x0C, 0x0D};
    ASSERT_TRUE(client.writeRaw(junk));
    rig.pumpFor(20);

    EXPECT_EQ(rig.transport.counters().codecErrors, 1u);
    EXPECT_EQ(rig.transport.connectionCount(), 0u);
}

TEST(TransportChaos, SlowLorisSingleByteWriter)
{
    Rig rig(1);
    net::SocketClient client;
    ASSERT_TRUE(client.connectTo(rig.transport.port()));

    // One byte per service cycle: the frame trickles in across ~40
    // pumps and must still decode to exactly one request.
    auto frame = net::encodeWireMessage(
        kFirstId, proto::Message{proto::AuthRequest{kFirstId}});
    for (std::uint8_t b : frame) {
        ASSERT_TRUE(client.writeRaw(
            std::span<const std::uint8_t>(&b, 1)));
        rig.transport.pump(rig.pool, 1);
    }

    auto reply = rig.awaitReply(client);
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(std::get_if<proto::ChallengeMsg>(&reply->second),
              nullptr);
    EXPECT_EQ(rig.transport.counters().framesIn, 1u);
}

TEST(TransportChaos, DuplicateFramesAreIdempotent)
{
    // FaultPlan's Duplicate at the socket layer: the same request
    // frame twice back to back. The session layer's dedup must
    // re-issue the same challenge, not open a second session.
    Rig rig(1);
    net::SocketClient client;
    ASSERT_TRUE(client.connectTo(rig.transport.port()));

    auto frame = net::encodeWireMessage(
        kFirstId, proto::Message{proto::AuthRequest{kFirstId}});
    ASSERT_TRUE(client.writeRaw(frame));
    ASSERT_TRUE(client.writeRaw(frame));

    auto first = rig.awaitReply(client);
    auto second = rig.awaitReply(client);
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    auto *c1 = std::get_if<proto::ChallengeMsg>(&first->second);
    auto *c2 = std::get_if<proto::ChallengeMsg>(&second->second);
    ASSERT_NE(c1, nullptr);
    ASSERT_NE(c2, nullptr);
    EXPECT_EQ(c1->nonce, c2->nonce);
    EXPECT_EQ(rig.server.duplicateRequests(), 1u);
    EXPECT_EQ(rig.server.pendingSessions(), 1u);
}

TEST(TransportChaos, HalfOpenConnectionIsGcdNotServed)
{
    // A peer that opens a session and vanishes without closing (half
    // open: no FIN, no RST, no bytes). The connection itself can
    // linger, but the *session* must not: GC reclaims it at the
    // timeout, exactly as over the loopback transport.
    Rig rig(1);
    net::SocketClient client;
    ASSERT_TRUE(client.connectTo(rig.transport.port()));
    ASSERT_TRUE(client.sendMessage(
        kFirstId, proto::Message{proto::AuthRequest{kFirstId}}));
    auto challenge = rig.awaitReply(client);
    ASSERT_TRUE(challenge.has_value());
    ASSERT_EQ(rig.server.pendingSessions(), 1u);

    // The peer goes silent forever. Time passes; GC fires.
    rig.clock.advance(kSessionTimeout + 1);
    rig.server.tick();
    rig.pumpFor(5);
    EXPECT_EQ(rig.server.pendingSessions(), 0u);
    EXPECT_EQ(rig.server.sessionsExpired(), 1u);

    // A late response on the reclaimed session earns an error, not a
    // resurrection.
    auto *ch = std::get_if<proto::ChallengeMsg>(&challenge->second);
    auto resp = honestResponse(rig.server.database().at(kFirstId),
                               ch->challenge);
    ASSERT_TRUE(client.sendMessage(
        kFirstId,
        proto::Message{proto::ResponseMsg{ch->nonce, resp}}));
    auto reply = rig.awaitReply(client);
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(std::get_if<proto::ErrorMsg>(&reply->second), nullptr);
    EXPECT_EQ(rig.server.pendingSessions(), 0u);
}

TEST(TransportChaos, ReconnectResumesSession)
{
    // Sessions belong to devices, not sockets: a challenge issued on
    // one connection is answerable from a fresh one after the first
    // dies (the reconnect path of a flaky but honest device).
    Rig rig(1);
    net::SocketClient first;
    ASSERT_TRUE(first.connectTo(rig.transport.port()));
    ASSERT_TRUE(first.sendMessage(
        kFirstId, proto::Message{proto::AuthRequest{kFirstId}}));
    auto challenge = rig.awaitReply(first);
    ASSERT_TRUE(challenge.has_value());
    auto *ch = std::get_if<proto::ChallengeMsg>(&challenge->second);
    ASSERT_NE(ch, nullptr);

    first.close(); // Orderly FIN; the server reaps the connection.
    rig.pumpFor(20);
    EXPECT_EQ(rig.transport.connectionCount(), 0u);
    EXPECT_EQ(rig.server.pendingSessions(), 1u);

    net::SocketClient second;
    ASSERT_TRUE(second.connectTo(rig.transport.port()));
    auto resp = honestResponse(rig.server.database().at(kFirstId),
                               ch->challenge);
    ASSERT_TRUE(second.sendMessage(
        kFirstId,
        proto::Message{proto::ResponseMsg{ch->nonce, resp}}));
    auto decision = rig.awaitReply(second);
    ASSERT_TRUE(decision.has_value());
    auto *d = std::get_if<proto::AuthDecision>(&decision->second);
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->accepted);
    EXPECT_EQ(rig.server.pendingSessions(), 0u);
}

TEST(TransportChaos, DroppedRequestLeavesNoTrace)
{
    // FaultPlan's Drop at the socket layer is trivial -- the frame
    // never leaves the client -- but the server-visible property
    // still matters: no session, no reply, and the next real request
    // behaves as if nothing happened.
    Rig rig(1);
    net::SocketClient client;
    ASSERT_TRUE(client.connectTo(rig.transport.port()));
    rig.pumpFor(10);
    EXPECT_EQ(rig.server.pendingSessions(), 0u);
    EXPECT_EQ(rig.transport.counters().framesIn, 0u);
    completeAuth(rig, client, kFirstId);
}

TEST(TransportChaos, LongLivedConnectionDoesNotGrowSinkTable)
{
    // A device that reuses one connection for many exchanges, each on
    // a fresh stream id. Without per-stream sink GC the connection's
    // stream table would gain one entry per exchange forever; with it,
    // every terminal AuthDecision retires its sink and the table is
    // empty between exchanges.
    Rig rig(1);
    net::SocketClient client;
    ASSERT_TRUE(client.connectTo(rig.transport.port()));

    constexpr int kRounds = 16;
    for (int i = 0; i < kRounds; ++i) {
        const std::uint64_t stream = 1000 + i;
        ASSERT_TRUE(client.sendMessage(
            stream, proto::Message{proto::AuthRequest{kFirstId}}));
        auto challenge = rig.awaitReply(client);
        ASSERT_TRUE(challenge.has_value());
        auto *ch = std::get_if<proto::ChallengeMsg>(&challenge->second);
        ASSERT_NE(ch, nullptr);

        auto resp = honestResponse(rig.server.database().at(kFirstId),
                                   ch->challenge);
        ASSERT_TRUE(client.sendMessage(
            stream,
            proto::Message{proto::ResponseMsg{ch->nonce, resp}}));
        auto decision = rig.awaitReply(client);
        ASSERT_TRUE(decision.has_value());
        ASSERT_NE(std::get_if<proto::AuthDecision>(&decision->second),
                  nullptr);
    }

    std::size_t live_sinks = 0;
    for (auto &[id, conn] :
         rig.transport.transportCore().connections())
        live_sinks += conn->streams.size();
    EXPECT_EQ(live_sinks, 0u);
    EXPECT_EQ(rig.transport.counters().sinksRetired,
              static_cast<std::uint64_t>(kRounds));
}

TEST(TransportChaos, ManyConnectionsSurviveOneAbusiveNeighbor)
{
    // One slow-loris + one corrupter + one resetter, interleaved with
    // three honest devices authenticating: the honest traffic must
    // complete, and exactly the two poisoned connections die.
    Rig rig(3);
    net::SocketClient loris;
    net::SocketClient corrupter;
    net::SocketClient resetter;
    std::vector<net::SocketClient> honest(3);
    ASSERT_TRUE(loris.connectTo(rig.transport.port()));
    ASSERT_TRUE(corrupter.connectTo(rig.transport.port()));
    ASSERT_TRUE(resetter.connectTo(rig.transport.port()));
    for (std::size_t i = 0; i < honest.size(); ++i)
        ASSERT_TRUE(honest[i].connectTo(rig.transport.port()));
    rig.pumpFor(5);

    auto frame = net::encodeWireMessage(
        kFirstId, proto::Message{proto::AuthRequest{kFirstId}});
    // Loris: forever mid-frame.
    ASSERT_TRUE(loris.writeRaw(std::span<const std::uint8_t>(
        frame.data(), frame.size() - 1)));
    // Corrupter: CRC-broken frame.
    auto bad = frame;
    bad[net::kWireHeaderBytes] ^= 0x01;
    ASSERT_TRUE(corrupter.writeRaw(bad));
    // Resetter: half a frame then RST.
    ASSERT_TRUE(resetter.writeRaw(std::span<const std::uint8_t>(
        frame.data(), frame.size() / 2)));
    rig.pumpFor(10);
    resetter.abort();

    for (std::size_t i = 0; i < honest.size(); ++i)
        completeAuth(rig, honest[i], kFirstId + i);

    rig.pumpFor(20);
    // Corrupter and resetter are dead; loris plus the three honest
    // connections remain.
    EXPECT_EQ(rig.transport.counters().codecErrors, 1u);
    EXPECT_EQ(rig.transport.connectionCount(), 4u);

    // Drain still terminates with a wedged mid-frame peer attached.
    rig.transport.drain(rig.pool);
    EXPECT_EQ(rig.transport.connectionCount(), 0u);
}
