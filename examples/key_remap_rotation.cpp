/**
 * @file
 * Adaptive error remapping in detail (paper Sec 4.5, Figure 7):
 * reserved voltage levels, the fuzzy-extractor helper data that makes
 * the noisy PUF response reproduce an exact key, and repeated key
 * rotations. Also demonstrates the failure path: helper data that
 * does not match the device (e.g. a cloned record) yields a key the
 * server detects on the next authentication.
 */

#include <iostream>

#include "crypto/fuzzy_extractor.hpp"
#include "net/loopback.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"

using namespace authenticache;

int
main()
{
    std::cout << "== Adaptive error remapping (key rotation) ==\n\n";

    sim::ChipConfig chip_cfg;
    chip_cfg.cacheBytes = 1024 * 1024;
    sim::SimulatedChip chip(chip_cfg, 0x4E3);
    firmware::SimulatedMachine machine(4);
    firmware::ClientConfig client_cfg;
    client_cfg.selfTestAttempts = 8; // Clean reserved-level responses.
    firmware::AuthenticacheClient device(chip, machine, client_cfg);
    device.boot();

    server::ServerConfig server_cfg;
    server_cfg.challengeBits = 128;
    server_cfg.remapSecretBits = 32;
    server_cfg.fuzzyRepetition = 5;
    server::AuthenticationServer server(server_cfg, 31337);
    auto levels = server::defaultChallengeLevels(device, 1);
    auto reserved = server::defaultReservedLevel(device);
    server.enroll(1, device, levels, {reserved});

    std::cout << "reserved remap level: " << reserved
              << " mV; remap challenge: "
              << server_cfg.remapSecretBits *
                     server_cfg.fuzzyRepetition
              << " bits -> " << server_cfg.remapSecretBits
              << " secret bits (repetition "
              << server_cfg.fuzzyRepetition << ")\n\n";

    net::LoopbackTransport loop(server.frontEnd(), {});
    net::LoopbackTransport::Client &conn = *loop.connect();
    server::DeviceAgent agent(1, device, conn.uplink(1));

    auto authenticate = [&]() {
        agent.requestAuthentication();
        net::runExchange(conn, agent);
        return agent.lastDecision() &&
               agent.lastDecision()->accepted;
    };

    // Rotate the key several times; authentication must survive each.
    for (int rotation = 1; rotation <= 3; ++rotation) {
        crypto::Key256 before = device.mapKey();
        server.startRemap(1, conn.downlink(1));
        net::runExchange(conn, agent);
        bool key_changed = !(device.mapKey() == before);
        bool in_sync =
            device.mapKey() == server.database().at(1).mapKey();
        bool auth_ok = authenticate();
        std::cout << "rotation " << rotation << ": key changed="
                  << (key_changed ? "yes" : "no ")
                  << " client/server in sync="
                  << (in_sync ? "yes" : "no ") << " next auth="
                  << (auth_ok ? "ACCEPTED" : "REJECTED") << "\n";
    }

    // Failure path: the *protocol* remap is protected by a two-phase
    // commit with key confirmation (a mis-derived key is rejected and
    // both sides keep the old key; see tests/test_remap_commit.cpp).
    // Here we bypass the protocol and corrupt the helper data fed
    // directly into the firmware API, which installs unconditionally:
    // the resulting desynchronization is what the confirmation step
    // exists to prevent.
    std::cout << "\ninjecting a corrupted remap via the raw firmware "
                 "API (bypassing the protocol's confirmation)...\n";
    crypto::Key256 server_key_before =
        server.database().at(1).mapKey();
    {
        // Build a bogus remap by hand: random helper bits.
        util::Rng rng(1);
        core::Challenge challenge = core::randomChallenge(
            chip.geometry(), reserved, 160, rng);
        util::BitVec bogus_helper(160);
        for (std::size_t i = 0; i < 160; ++i)
            bogus_helper.set(i, rng.nextBool());
        crypto::FuzzyExtractor extractor(5);
        device.processRemapRequest(challenge, bogus_helper, extractor);
    }
    bool desynced =
        !(device.mapKey() == server_key_before);
    bool auth_after_bogus = authenticate();
    std::cout << "device key desynchronized: "
              << (desynced ? "yes" : "no") << "; next auth: "
              << (auth_after_bogus ? "ACCEPTED" : "REJECTED")
              << " (expected REJECTED)\n";

    // Recovery: a legitimate remap restores synchronization.
    server.startRemap(1, conn.downlink(1));
    net::runExchange(conn, agent);
    std::cout << "after legitimate remap: next auth "
              << (authenticate() ? "ACCEPTED" : "REJECTED")
              << " (expected ACCEPTED)\n";

    std::cout << "\nnote: the reserved-level response never crosses "
                 "the wire -- only the helper data does, which reveals "
                 "nothing without the silicon (Sec 4.5).\n";
    return 0;
}
