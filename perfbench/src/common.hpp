/**
 * @file
 * Steps shared by the workloads: enrollment, warm-up, the recovery
 * check, the traced run's replays and the pool-width probe.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "workloads.hpp"

namespace perfbench {

/** Wave size of every in-process driver: new AuthRequests per call. */
constexpr std::size_t kWave = 256;

/** A seeded permutation of the fleet's device ids. */
std::vector<std::uint64_t> devicePermutation(std::size_t n,
                                             std::uint64_t seed);

/** @p count honest ops walking @p order cyclically from @p from. */
std::vector<AuthOp> honestOps(const std::vector<std::uint64_t> &order,
                              std::size_t from, std::size_t count);

/** Enroll every device of @p fleet with its zero-key record. */
void enrollFleet(authenticache::server::AuthenticationServer &server,
                 const Fleet &fleet);

/** One honest authentication per device, so lazy caches are built. */
void warmUp(WaveRunner &runner, const Fleet &fleet,
            authenticache::util::ThreadPool &pool);

struct RecoveryCheck
{
    double seconds = 0.0; ///< Fastest DurabilityManager::recover.
    double snapshotMb = 0.0; ///< Newest snapshot file.
};

/**
 * Time DurabilityManager::recover on @p dir (at least three attempts,
 * more while under a second has been spent), and fail @p check unless
 * the recovered database saves to the same bytes as the live one.
 * With no durability attached the live database is first written to
 * @p dir as a fresh snapshot generation.
 */
RecoveryCheck
recoverAndCompare(authenticache::server::AuthenticationServer &server,
                  const std::string &dir, Checker &check);

/**
 * Replay the sampled inputs through each layer's public calls,
 * recording one span per call into @p tracer.
 */
void replayLayers(const ReplaySample &sample,
                  const authenticache::server::AuthenticationServer &server,
                  Tracer &tracer, std::map<std::string, double> &layers);

/**
 * pool.speedup_vs_1 and server.batch_us_per_frame: run @p ops as
 * extra waves, alternating pool width 1 and @p width (1, W, W, 1).
 */
void poolProbe(authenticache::server::AuthenticationServer &server,
               const Fleet &fleet, Checker &check,
               const std::vector<AuthOp> &ops, unsigned width,
               std::uint64_t seed, std::map<std::string, double> &layers);

/**
 * Goodput of consecutive chunks of @p per_chunk calls (a trailing
 * partial chunk is dropped): accepted decisions over server seconds.
 */
std::vector<double> chunkGoodput(std::span<const CallRecord> calls,
                                 std::size_t per_chunk);

/** Resident memory growth since @p base, in MB. */
double memGrowthMb(std::uint64_t base);

std::unique_ptr<Workload> makeWireWorkload(const Env &env);
std::unique_ptr<Workload> makeBatchWorkload(const Env &env);
std::unique_ptr<Workload> makeDurableWorkload(const Env &env);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
