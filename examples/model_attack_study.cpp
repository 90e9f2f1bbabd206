/**
 * @file
 * Eavesdropper study: a passive attacker wiretaps the client/server
 * channel, extracts challenge-response pairs from the transcript,
 * trains the model-building attacker of Sec 6.7, and is then defeated
 * by the adaptive remap countermeasure of Sec 4.5, which re-randomizes
 * the logical coordinate space.
 */

#include <iostream>

#include "attack/model_attack.hpp"
#include "net/loopback.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"
#include "util/table.hpp"

using namespace authenticache;

int
main()
{
    std::cout << "== Model-building attack vs remap countermeasure ==\n\n";

    sim::ChipConfig chip_cfg;
    chip_cfg.cacheBytes = 1024 * 1024;
    sim::SimulatedChip chip(chip_cfg, 0xBAD);
    firmware::SimulatedMachine machine(4);
    firmware::AuthenticacheClient device(chip, machine);
    device.boot();

    server::ServerConfig server_cfg;
    server_cfg.challengeBits = 256;
    server::AuthenticationServer server(server_cfg, 1234);
    auto levels = server::defaultChallengeLevels(device, 1);
    auto reserved = server::defaultReservedLevel(device);
    server.enroll(1, device, levels, {reserved});

    // The attacker wiretaps the link.
    protocol::Transcript wiretap;
    net::LoopbackTransport loop(server.frontEnd(), {});
    loop.attachTranscript(&wiretap);
    net::LoopbackTransport::Client &conn = *loop.connect();
    server::DeviceAgent agent(1, device, conn.uplink(1));

    // Honest parties run a batch of authentications.
    const int sessions = 24;
    int accepted = 0;
    for (int s = 0; s < sessions; ++s) {
        agent.requestAuthentication();
        net::runExchange(conn, agent);
        if (agent.lastDecision() && agent.lastDecision()->accepted)
            ++accepted;
    }
    std::cout << "honest sessions: " << accepted << "/" << sessions
              << " accepted; attacker observed " << wiretap.size()
              << " frames\n";

    // The attacker decodes CRPs from the transcript and trains.
    auto crps = wiretap.observedCrps();
    std::size_t observed_bits = 0;
    attack::DistanceFieldModel model(chip.geometry());
    for (const auto &[challenge, response] : crps) {
        for (std::size_t i = 0; i < challenge.size(); ++i) {
            model.train(challenge.bits[i], response.get(i));
            ++observed_bits;
        }
    }
    std::cout << "attacker trained on " << crps.size()
              << " transcripts (" << observed_bits << " CRP bits)\n";

    // Measure prediction accuracy against fresh honest sessions.
    auto measure = [&]() {
        std::size_t correct = 0;
        std::size_t total = 0;
        std::size_t before = wiretap.observedCrps().size();
        for (int s = 0; s < 6; ++s) {
            agent.requestAuthentication();
            net::runExchange(conn, agent);
        }
        auto all = wiretap.observedCrps();
        for (std::size_t idx = before; idx < all.size(); ++idx) {
            const auto &[challenge, response] = all[idx];
            for (std::size_t i = 0; i < challenge.size(); ++i) {
                correct += model.predict(challenge.bits[i]) ==
                           response.get(i);
                ++total;
            }
        }
        return total ? static_cast<double>(correct) /
                           static_cast<double>(total)
                     : 0.0;
    };

    double acc_trained = measure();
    std::cout << "\nprediction accuracy on fresh sessions: "
              << acc_trained * 100.0 << "% (coin flip = 50%)\n";

    // Countermeasure: the server rotates the logical map. The
    // attacker's learned field describes the *old* coordinate space.
    server.startRemap(1, conn.downlink(1));
    net::runExchange(conn, agent);
    std::cout << "\nserver initiated remap; committed: "
              << server.remapsCommitted() << "\n";

    double acc_after = measure();
    std::cout << "prediction accuracy after remap: "
              << acc_after * 100.0 << "%\n";

    std::cout << "\nreading: accuracy above 50% lets the attacker "
                 "predict responses; rotating K_A resets the model to "
                 "chance, so the server should remap before the "
                 "observed-CRP budget is reached (Sec 6.7).\n";
    return 0;
}
