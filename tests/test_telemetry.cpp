/**
 * @file
 * Tests for the stats registry and the chip/client/server collectors.
 */

#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "net/loopback.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"
#include "util/stats_registry.hpp"

namespace fw = authenticache::firmware;
namespace sim = authenticache::sim;
namespace core = authenticache::core;
namespace proto = authenticache::protocol;
namespace net = authenticache::net;
namespace srv = authenticache::server;
namespace u = authenticache::util;
using authenticache::util::Rng;

TEST(StatsRegistry, SetGetAndTypes)
{
    u::StatsRegistry reg;
    reg.set("chip", "reads", std::uint64_t(42));
    reg.set("chip", "vdd", 0.75);
    EXPECT_EQ(reg.getInt("chip", "reads"), 42u);
    EXPECT_DOUBLE_EQ(*reg.getFloat("chip", "vdd"), 0.75);
    EXPECT_FALSE(reg.getInt("chip", "nope").has_value());
    EXPECT_FALSE(reg.getFloat("chip", "reads").has_value());
    EXPECT_EQ(reg.size(), 2u);
}

TEST(StatsRegistry, AddAccumulates)
{
    u::StatsRegistry reg;
    reg.add("x", "count", 3);
    reg.add("x", "count", 4);
    EXPECT_EQ(reg.getInt("x", "count"), 7u);
}

TEST(StatsRegistry, ClearAndDump)
{
    u::StatsRegistry reg;
    reg.set("a", "one", std::uint64_t(1));
    reg.set("b", "two", 2.0);
    std::ostringstream os;
    reg.dump(os);
    EXPECT_NE(os.str().find("a.one"), std::string::npos);
    EXPECT_NE(os.str().find("b.two"), std::string::npos);
    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
}

TEST(Telemetry, CollectorsCaptureSystemActivity)
{
    sim::ChipConfig cfg;
    cfg.cacheBytes = 1024 * 1024;
    sim::SimulatedChip chip(cfg, 321);
    fw::SimulatedMachine machine(2);
    fw::ClientConfig ccfg;
    ccfg.selfTestAttempts = 8;
    fw::AuthenticacheClient client(chip, machine, ccfg);
    client.boot();

    srv::ServerConfig scfg;
    scfg.challengeBits = 64;
    srv::AuthenticationServer server(scfg, 1);
    auto levels = srv::defaultChallengeLevels(client, 1);
    server.enroll(3, client, levels,
                  {srv::defaultReservedLevel(client)});

    net::LoopbackTransport loop(server.frontEnd(), {});
    net::LoopbackTransport::Client &conn = *loop.connect();
    srv::DeviceAgent agent(3, client, conn.uplink(3));
    agent.requestAuthentication();
    net::runExchange(conn, agent);
    ASSERT_TRUE(agent.lastDecision().has_value());

    u::StatsRegistry reg;
    sim::collectChipStats(chip, reg);
    fw::collectClientStats(client, reg);
    srv::collectServerStats(server, reg);

    // Chip: boot calibration + enrollment + one auth touched a lot.
    EXPECT_GT(*reg.getInt("chip", "word_reads"), 100000u);
    EXPECT_GT(*reg.getInt("chip", "word_writes"), 100000u);
    EXPECT_GT(*reg.getInt("chip", "ecc_corrected"), 0u);
    EXPECT_GT(*reg.getInt("chip", "vdd_transitions"), 2u);
    EXPECT_DOUBLE_EQ(*reg.getFloat("chip", "vdd_mv"),
                     chip.regulator().nominalMv());

    // Client: exactly one completed authentication.
    EXPECT_EQ(*reg.getInt("client", "authentications_completed"),
              1u);
    EXPECT_EQ(*reg.getInt("client", "authentications_aborted"), 0u);
    EXPECT_GT(*reg.getInt("client", "line_tests"), 0u);
    EXPECT_GT(*reg.getFloat("client", "busy_ms"), 0.0);

    // Server: one device, one accept.
    EXPECT_EQ(*reg.getInt("server", "devices"), 1u);
    EXPECT_EQ(*reg.getInt("server", "authentications_accepted"), 1u);
    EXPECT_EQ(*reg.getInt("server", "devices_locked"), 0u);

    // Custom component prefix.
    u::StatsRegistry named;
    sim::collectChipStats(chip, named, "device3.chip");
    EXPECT_TRUE(named.getInt("device3.chip", "word_reads")
                    .has_value());
}

TEST(Telemetry, AbortCountsSeparately)
{
    sim::ChipConfig cfg;
    cfg.cacheBytes = 256 * 1024;
    sim::SimulatedChip chip(cfg, 99);
    fw::SimulatedMachine machine(2);
    fw::AuthenticacheClient client(chip, machine);
    client.boot();

    core::Challenge bad;
    auto below =
        static_cast<core::VddMv>(client.floorMv() - 50.0);
    bad.bits.push_back({{{0, 0}, below}, {{1, 0}, below}});
    ASSERT_FALSE(client.authenticate(bad).ok());

    u::StatsRegistry reg;
    fw::collectClientStats(client, reg);
    EXPECT_EQ(*reg.getInt("client", "authentications_aborted"), 1u);
    EXPECT_EQ(*reg.getInt("client", "authentications_completed"),
              0u);
}
