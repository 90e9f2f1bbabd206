/**
 * @file
 * Server-side authentication throughput through the batch front end:
 * frames/sec for a many-device request/response flood at 1, 4, and
 * hardware-default thread counts.
 *
 * The workload is the server's hot path only -- challenge generation
 * (fresh-pair draws plus map evaluation) and response verification --
 * driven by synthetic enrolled devices, so no chip simulation sits in
 * the loop. Client-side work (response crafting) happens between
 * batches and is excluded from the timed region.
 *
 * Outcomes are bit-identical at every width (the batch pipeline's
 * determinism contract); the run cross-checks accepted counts across
 * widths. Speedup tracks available cores: on a single-core host all
 * widths collapse to ~1x.
 *
 * Each width is also re-run with the durability layer attached (WAL
 * appends + one fsync per batch into a fresh temp directory), both to
 * report the journaling overhead and to cross-check that outcomes
 * with journaling enabled stay identical to the plain run at every
 * width.
 *
 * Flags: --smoke (or AUTHENTICACHE_QUICK=1) shrinks the flood for CI.
 */

#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/remap.hpp"
#include "mc/mapgen.hpp"
#include "server/durability.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace authenticache;

namespace {

constexpr core::VddMv kLevel = 700.0;
constexpr std::uint64_t kServerSeed = 0x7B40;
constexpr std::size_t kMapErrors = 60;

/**
 * A flood fixture: server, devices, one reply sink per device. When
 * @p durable_dir is non-empty the durability layer is attached after
 * enrollment (the opening rotation snapshots the enrolled database),
 * so the timed region pays WAL appends plus one sync per batch.
 */
struct Flood
{
    server::ServerConfig cfg;
    server::AuthenticationServer srv;
    std::vector<std::uint64_t> ids;
    std::vector<std::unique_ptr<protocol::EncodingSink>> ends;
    std::optional<server::DurabilityManager> dur;

    explicit Flood(std::size_t n_devices,
                   const std::string &durable_dir = "")
        : cfg([] {
              server::ServerConfig c;
              c.challengeBits = 64;
              c.verifier.pIntra = 0.08;
              c.maxPendingSessions = 1 << 20;
              c.sessionShards = 16;
              return c;
          }()),
          srv(cfg, kServerSeed)
    {
        core::CacheGeometry geom(256 * 1024);
        for (std::size_t i = 0; i < n_devices; ++i) {
            std::uint64_t id = 1000 + i;
            util::Rng mr = util::Rng::forStream(0xBE9C, id);
            srv.database().enroll(server::DeviceRecord(
                id, mc::randomErrorMap(geom, kLevel, kMapErrors, mr),
                {kLevel}, {}));
            ids.push_back(id);
            ends.push_back(std::make_unique<protocol::EncodingSink>());
        }
        if (!durable_dir.empty()) {
            dur.emplace(server::DurabilityConfig{durable_dir, 4096},
                        srv.database());
            srv.attachDurability(&*dur);
        }
    }
};

/** The response a noiseless honest device returns. */
util::BitVec
honest(const server::DeviceRecord &rec, const core::Challenge &ch)
{
    core::LogicalRemap remap(rec.mapKey(),
                             rec.physicalMap().geometry());
    return core::evaluate(remap.mapErrorMap(rec.physicalMap()), ch);
}

struct Measurement
{
    std::size_t frames = 0;
    double seconds = 0.0;
    std::uint64_t accepted = 0;
};

/**
 * Run @p rounds of full request+response waves through handleBatch
 * at the given pool width, timing only the server's batch calls.
 * A non-empty @p durable_dir attaches the durability layer (a fresh
 * directory per run keeps the journaled event streams comparable).
 */
Measurement
run(std::size_t n_devices, std::size_t rounds, unsigned threads,
    const std::string &durable_dir = "")
{
    if (!durable_dir.empty()) {
        std::filesystem::remove_all(durable_dir);
        std::filesystem::create_directories(durable_dir);
    }
    Flood flood(n_devices, durable_dir);
    util::ThreadPool pool(threads);
    Measurement m;

    for (std::size_t r = 0; r < rounds; ++r) {
        std::vector<server::Frame> batch;
        batch.reserve(n_devices);
        for (std::size_t i = 0; i < n_devices; ++i)
            batch.push_back(server::Frame{
                protocol::encodeMessage(
                    protocol::AuthRequest{flood.ids[i]}),
                flood.ends[i].get()});
        {
            authbench::WallTimer t;
            flood.srv.handleBatch(batch, pool);
            m.seconds += t.seconds();
        }
        m.frames += batch.size();

        batch.clear();
        for (std::size_t i = 0; i < n_devices; ++i) {
            const auto &replies = flood.ends[i]->frames;
            if (replies.empty())
                continue;
            auto msg = protocol::decodeMessage(replies.front());
            auto *ch = std::get_if<protocol::ChallengeMsg>(&msg);
            if (!ch)
                continue;
            const auto &rec = flood.srv.database().at(flood.ids[i]);
            batch.push_back(server::Frame{
                protocol::encodeMessage(protocol::ResponseMsg{
                    ch->nonce, honest(rec, ch->challenge)}),
                flood.ends[i].get()});
        }
        {
            authbench::WallTimer t;
            flood.srv.handleBatch(batch, pool);
            m.seconds += t.seconds();
        }
        m.frames += batch.size();
        // Drain decisions so queues stay flat across rounds.
        for (auto &end : flood.ends)
            end->frames.clear();
    }

    for (auto id : flood.ids)
        m.accepted += flood.srv.database().at(id).accepted();
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
    if (authbench::quickMode())
        smoke = true;

    authbench::banner(
        "Server batch throughput (frames/sec vs pool width)",
        "batch front end: parallel shard dispatch, deterministic "
        "merge");

    const std::size_t devices = smoke ? 32 : 256;
    const std::size_t rounds = smoke ? 2 : 6;
    const unsigned hw = util::ThreadPool::defaultThreadCount();
    std::vector<unsigned> widths{1, 4};
    if (hw > 4)
        widths.push_back(hw);

    std::cout << devices << " devices, " << rounds
              << " request+response rounds per width (hardware "
              << "threads: " << hw << ")\n\n";

    const std::string dur_dir =
        (std::filesystem::temp_directory_path() / "authbench_dur")
            .string();

    util::Table table({"threads", "frames", "seconds", "frames_per_s",
                       "speedup_vs_1", "durable_fps",
                       "durable_overhead_pct"});
    double base_rate = 0.0;
    std::uint64_t base_accepted = 0;
    for (unsigned w : widths) {
        Measurement m = run(devices, rounds, w);
        Measurement md = run(devices, rounds, w, dur_dir);
        double rate = m.frames / (m.seconds > 0 ? m.seconds : 1e-9);
        double drate =
            md.frames / (md.seconds > 0 ? md.seconds : 1e-9);
        if (w == 1) {
            base_rate = rate;
            base_accepted = m.accepted;
        } else if (m.accepted != base_accepted) {
            // Determinism contract: outcomes never depend on width.
            std::cerr << "FAIL: accepted count diverged at width "
                      << w << " (" << m.accepted << " vs "
                      << base_accepted << ")\n";
            return 1;
        }
        if (md.accepted != base_accepted) {
            // ...and never on whether journaling is attached.
            std::cerr << "FAIL: durable accepted count diverged at "
                      << "width " << w << " (" << md.accepted
                      << " vs " << base_accepted << ")\n";
            return 1;
        }
        table.row()
            .cell(std::uint64_t(w))
            .cell(std::uint64_t(m.frames))
            .cell(m.seconds)
            .cell(rate)
            .cell(base_rate > 0 ? rate / base_rate : 1.0)
            .cell(drate)
            .cell(drate > 0 ? (rate / drate - 1.0) * 100.0 : 0.0);
    }
    table.print(std::cout);
    std::cout << "\ndurable runs journal every mutation and fsync "
                 "once per batch; accepted counts matched the plain "
                 "run at every width\n";
    std::filesystem::remove_all(dur_dir);
    return 0;
}
