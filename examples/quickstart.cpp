/**
 * @file
 * Quickstart: manufacture a device, enroll it with an authentication
 * server, and run one challenge-response authentication over the
 * loopback wire transport.
 *
 * This is the complete Authenticache loop of the paper's Figure 6:
 *
 *   device (cache + ECC + firmware)  <-- wire -->  server (error maps)
 */

#include <iostream>

#include "net/loopback.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"

using namespace authenticache;

int
main()
{
    std::cout << "== Authenticache quickstart ==\n\n";

    // 1. Manufacture a device: a chip whose 1MB cache carries a
    //    process-variation fingerprint determined by the die seed.
    sim::ChipConfig chip_cfg;
    chip_cfg.cacheBytes = 1024 * 1024;
    sim::SimulatedChip chip(chip_cfg, /*die seed=*/0xD1E);
    firmware::SimulatedMachine machine(/*cores=*/4);
    firmware::AuthenticacheClient device(chip, machine);

    // 2. Boot: firmware calibrates the lowest safe cache voltage.
    double floor = device.boot();
    std::cout << "voltage floor calibrated: " << floor << " mV (chip "
              << "Vcorr " << chip.vminField().vcorrMv() << " mV)\n";

    // 3. Enroll with the server (trusted, factory-side step): the
    //    server captures the device's low-voltage error maps and
    //    installs the logical-map key.
    server::ServerConfig server_cfg;
    server_cfg.challengeBits = 128;
    server::AuthenticationServer server(server_cfg, /*seed=*/42);
    auto levels = server::defaultChallengeLevels(device, 2);
    auto reserved = server::defaultReservedLevel(device);
    const auto &record = server.enroll(/*device id=*/1, device, levels,
                                       {reserved});
    std::cout << "enrolled: " << record.physicalMap().totalErrors()
              << " error lines across " << levels.size() + 1
              << " voltage levels\n";

    // 4. Field authentication over the wire protocol.
    net::LoopbackTransport loop(server.frontEnd(), {});
    net::LoopbackTransport::Client &conn = *loop.connect();
    server::DeviceAgent agent(1, device, conn.uplink(1));

    agent.requestAuthentication();
    net::runExchange(conn, agent);

    if (!agent.lastDecision()) {
        std::cout << "no decision reached\n";
        return 1;
    }
    const auto &decision = *agent.lastDecision();
    std::cout << "\nauthentication "
              << (decision.accepted ? "ACCEPTED" : "REJECTED")
              << " (Hamming distance " << decision.hammingDistance
              << " of " << server_cfg.challengeBits << " bits, "
              << "threshold "
              << server.verifier().thresholdFor(
                     server_cfg.challengeBits)
              << ")\n";

    std::cout << "\nremaining authentications at one level: "
              << record.remainingPairs(levels[0]) /
                     server_cfg.challengeBits
              << "\n";
    return decision.accepted ? 0 : 1;
}
