/**
 * @file
 * Server behaviour knobs and the per-authentication report record,
 * shared by every layer of the server stack (SessionManager, the
 * auth/remap flows, the batch front end, and the wiring facade).
 */

#ifndef AUTH_SERVER_CONFIG_HPP
#define AUTH_SERVER_CONFIG_HPP

#include <cstddef>
#include <cstdint>

#include "server/verifier.hpp"

namespace authenticache::server {

/**
 * Continuous-authentication (heartbeat) trust-ledger policy.
 *
 * Trust is a per-device integer in [0, max]. Clean heartbeats recover
 * it, marginal ones (accepted but close to threshold) and failures
 * decay it, and thresholds below define a tiered graceful-degradation
 * ladder: step-up -> proactive remap -> forced re-enrollment ->
 * revocation. All arithmetic is integral so trajectories replay
 * bit-for-bit.
 */
struct TrustPolicy
{
    /** Trust assigned at enrollment / heartbeat-session start. */
    std::uint32_t initial = 80;

    /** Ceiling trust can recover to. */
    std::uint32_t max = 100;

    /** Trust regained per clean heartbeat. */
    std::uint32_t cleanRecovery = 4;

    /** Trust lost per marginal heartbeat (accepted, but close). */
    std::uint32_t marginalPenalty = 8;

    /** Trust lost per failed or missed heartbeat. */
    std::uint32_t failPenalty = 20;

    /** Below this, the next heartbeat steps up to a full challenge. */
    std::uint32_t stepUpBelow = 60;

    /** Below this, schedule a proactive remap (budget permitting). */
    std::uint32_t remapBelow = 35;

    /** Below this, revoke the device outright. */
    std::uint32_t revokeBelow = 12;

    /** Trust granted back when a proactive remap is scheduled. */
    std::uint32_t remapRecovery = 30;

    /** Proactive remaps allowed before forcing re-enrollment. */
    std::uint32_t remapBudget = 2;

    /**
     * A heartbeat is *marginal* when accepted with hammingDistance >=
     * threshold * marginPercent / 100 (and threshold > 0): still
     * within tolerance, but drifting toward the boundary.
     */
    std::uint32_t marginPercent = 60;

    /**
     * Bits per low-cost heartbeat challenge (step-up uses
     * ServerConfig::challengeBits instead). 64 keeps a round at half
     * the full-auth cost while leaving enough bits that a healthy
     * device at nominal conditions reliably clears the EER threshold;
     * narrower widths make nominal rounds noisy enough to decay a
     * genuine device's trust.
     */
    std::size_t heartbeatBits = 64;

    /** Clock steps between heartbeat rounds. */
    std::uint64_t periodSteps = 4;
};

/** Server behaviour knobs. */
struct ServerConfig
{
    /** Bits per authentication challenge. */
    std::size_t challengeBits = 128;

    /** Secret bits derived per remap exchange. */
    std::size_t remapSecretBits = 32;

    /** Fuzzy-extractor repetition factor for remap helper data. */
    unsigned fuzzyRepetition = 5;

    /**
     * Draw each challenge endpoint at an independent random voltage
     * level (the paper's Eq 7 with V != V'; its prototype restricted
     * itself to single-Vdd challenges). Requires >= 2 enrolled
     * challenge levels; costs extra regulator transitions client-side.
     */
    bool multiLevelChallenges = false;

    /**
     * Lock a device after this many consecutive rejections (brute
     * force / cloning attempts burn the CRP space otherwise). 0
     * disables the policy; locked devices need unlockDevice().
     */
    std::uint64_t lockoutThreshold = 0;

    /**
     * Cap on simultaneously outstanding challenges (and remap
     * exchanges), summed across all session shards. A flood of
     * AuthRequests from clients that never answer would otherwise
     * grow server state without bound; when full, the globally oldest
     * outstanding session is evicted (its nonce is dead, the consumed
     * pairs stay retired). The cap is enforced at batch boundaries:
     * after every handleBatch.
     */
    std::size_t maxPendingSessions = 1024;

    /**
     * Per-session deadline in simulated clock steps: an outstanding
     * challenge (or remap exchange) not answered within this many
     * steps of issue is garbage-collected -- its consumed pairs stay
     * retired, its nonce is dead. 0 disables expiry; expiry also needs
     * a clock bound with bindClock().
     */
    std::uint64_t sessionTimeoutSteps = 0;

    /**
     * Completed sessions kept *per shard* for idempotent
     * retransmission handling: a duplicated or retransmitted
     * ResponseMsg / RemapAck whose nonce already completed gets the
     * original decision / commit resent verbatim instead of an
     * "unknown nonce" error (and never double-counts toward the
     * lockout policy).
     */
    std::size_t completedCacheSize = 256;

    /**
     * Independent session shards (rounded up to a power of two).
     * Devices hash to shards by device id; each shard owns its own
     * mutex, pending tables, replay cache, deadline wheel, and
     * per-device RNG streams, so a batch of frames from distinct
     * devices is serviced concurrently. 1 recovers a fully serial
     * server.
     */
    unsigned sessionShards = 8;

    /**
     * With a durability layer attached: journal an absolute
     * counter checkpoint for a device every N authentication
     * outcomes (0 disables). Checkpoints are redundant with the
     * AuthOutcome stream -- they exist to keep recovered counters
     * self-correcting for hot devices whose snapshots are far apart.
     */
    std::uint64_t counterCheckpointEvery = 0;

    VerifierPolicy verifier;

    TrustPolicy trust;
};

/** Record of one completed authentication (for reporting/tests). */
struct AuthReport
{
    std::uint64_t deviceId = 0;
    std::uint64_t nonce = 0;
    bool accepted = false;
    std::uint32_t hammingDistance = 0;
    std::int64_t threshold = 0;
};

} // namespace authenticache::server

#endif // AUTH_SERVER_CONFIG_HPP
