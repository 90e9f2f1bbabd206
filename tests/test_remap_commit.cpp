/**
 * @file
 * Tests for the remap two-phase commit with key confirmation: a
 * client that mis-derives the key (helper corrupted / noise beyond
 * correction) must be detected at the confirmation step, leaving both
 * sides on the old key -- the desynchronization hazard the lifetime
 * simulation exposed with the naive single-phase protocol.
 */

#include <memory>

#include <gtest/gtest.h>

#include "net/loopback.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"

namespace fw = authenticache::firmware;
namespace sim = authenticache::sim;
namespace core = authenticache::core;
namespace crypto = authenticache::crypto;
namespace net = authenticache::net;
namespace proto = authenticache::protocol;
namespace srv = authenticache::server;

class RemapCommitFlow : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::ChipConfig cfg;
        cfg.cacheBytes = 1024 * 1024;
        chip = std::make_unique<sim::SimulatedChip>(cfg, 6006);
        machine = std::make_unique<fw::SimulatedMachine>(2);
        fw::ClientConfig ccfg;
        ccfg.selfTestAttempts = 8;
        client = std::make_unique<fw::AuthenticacheClient>(
            *chip, *machine, ccfg);
        client->boot();

        srv::ServerConfig scfg;
        scfg.challengeBits = 64;
        scfg.remapSecretBits = 16;
        server =
            std::make_unique<srv::AuthenticationServer>(scfg, 66);
        auto levels = srv::defaultChallengeLevels(*client, 1);
        server->enroll(8, *client, levels,
                       {srv::defaultReservedLevel(*client)});

        loop = std::make_unique<net::LoopbackTransport>(
            server->frontEnd(), net::TransportConfig{});
        conn = loop->connect();
        agent = std::make_unique<srv::DeviceAgent>(8, *client,
                                                   conn->uplink(8));
    }

    /** Intercept the RemapRequest a fresh startRemap pushes. */
    proto::RemapRequest
    interceptRemapRequest()
    {
        server->startRemap(8, conn->downlink(8));
        auto msgs = conn->readMessages();
        EXPECT_EQ(msgs.size(), 1u);
        auto *req = std::get_if<proto::RemapRequest>(&msgs.at(0).second);
        EXPECT_NE(req, nullptr);
        return req ? *req : proto::RemapRequest{};
    }

    std::unique_ptr<sim::SimulatedChip> chip;
    std::unique_ptr<fw::SimulatedMachine> machine;
    std::unique_ptr<fw::AuthenticacheClient> client;
    std::unique_ptr<srv::AuthenticationServer> server;
    std::unique_ptr<net::LoopbackTransport> loop;
    net::LoopbackTransport::Client *conn = nullptr;
    std::unique_ptr<srv::DeviceAgent> agent;
};

TEST_F(RemapCommitFlow, CleanRemapCommitsBothSides)
{
    crypto::Key256 before = client->mapKey();
    server->startRemap(8, conn->downlink(8));
    net::runExchange(*conn, *agent);

    EXPECT_EQ(server->remapsCommitted(), 1u);
    EXPECT_EQ(server->remapsRejected(), 0u);
    EXPECT_NE(client->mapKey(), before);
    EXPECT_EQ(client->mapKey(), server->database().at(8).mapKey());
}

TEST_F(RemapCommitFlow, CorruptedHelperIsRejectedWithoutDesync)
{
    crypto::Key256 before = client->mapKey();
    ASSERT_EQ(server->database().at(8).mapKey(), before);

    // Intercept the RemapRequest and sabotage one helper group so
    // the client derives the wrong secret.
    proto::RemapRequest req = interceptRemapRequest();
    req.helper.flip(0);
    req.helper.flip(1);
    req.helper.flip(2); // Majority of the first 5-bit group flips.
    agent->receive(proto::encodeMessage(req));

    net::runExchange(*conn, *agent);

    // The confirmation MAC exposed the mismatch: rejected, and both
    // sides still hold the old key.
    EXPECT_EQ(server->remapsCommitted(), 0u);
    EXPECT_EQ(server->remapsRejected(), 1u);
    EXPECT_EQ(client->mapKey(), before);
    EXPECT_EQ(server->database().at(8).mapKey(), before);

    // Authentication still works on the old key.
    agent->requestAuthentication();
    net::runExchange(*conn, *agent);
    ASSERT_TRUE(agent->lastDecision().has_value());
    EXPECT_TRUE(agent->lastDecision()->accepted);

    // And a clean retry succeeds.
    server->startRemap(8, conn->downlink(8));
    net::runExchange(*conn, *agent);
    EXPECT_EQ(server->remapsCommitted(), 1u);
    EXPECT_EQ(client->mapKey(), server->database().at(8).mapKey());
}

TEST_F(RemapCommitFlow, StrayCommitIsIgnored)
{
    crypto::Key256 before = client->mapKey();
    agent->receive(proto::encodeMessage(proto::RemapCommit{12345, true}));
    EXPECT_EQ(client->mapKey(), before);
}

TEST_F(RemapCommitFlow, ForgedConfirmationRejected)
{
    // An attacker who hijacks the ack cannot confirm without the key.
    proto::RemapRequest req = interceptRemapRequest();

    proto::RemapAck forged;
    forged.nonce = req.nonce;
    forged.success = true;
    forged.confirmation.fill(0xAB);
    conn->sendMessage(8, forged);
    net::runExchange(*conn, *agent);

    EXPECT_EQ(server->remapsCommitted(), 0u);
    EXPECT_EQ(server->remapsRejected(), 1u);
}
