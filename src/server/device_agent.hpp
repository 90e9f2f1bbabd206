/**
 * @file
 * The device-side protocol agent and its retry policy, split out of
 * the server header: the agent bridges the wire protocol to the
 * firmware client and runs the client half of the reliability layer
 * (paper Sec 2.1, 4.2-4.5).
 */

#ifndef AUTH_SERVER_DEVICE_AGENT_HPP
#define AUTH_SERVER_DEVICE_AGENT_HPP

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/key.hpp"
#include "firmware/client.hpp"
#include "protocol/messages.hpp"
#include "util/sim_clock.hpp"

namespace authenticache::server {

/**
 * Client-side retry knobs; all time in simulated clock steps.
 * Attempt k (k = 0 for the original send) is declared lost after
 *
 *     timeoutSteps + min(capSteps, baseSteps << (k-1)) + jitter(k)
 *
 * steps (no backoff on the first attempt), where jitter(k) is drawn
 * deterministically from Rng::forStream(jitterSeed, k) -- the same
 * policy and seed always produce the same schedule.
 */
struct RetryPolicy
{
    /** Per-attempt reply deadline. */
    std::uint64_t timeoutSteps = 12;

    /** Total send attempts (original + retransmissions). */
    std::uint32_t maxAttempts = 4;

    /** Exponential backoff base, doubling per retransmission. */
    std::uint64_t backoffBaseSteps = 2;

    /** Backoff ceiling. */
    std::uint64_t backoffCapSteps = 32;

    /** Deterministic jitter drawn uniformly from [0, jitterSteps]. */
    std::uint64_t jitterSteps = 2;
    std::uint64_t jitterSeed = 0x0BACC0FF;

    /** Deadline of attempt @p attempt sent at @p now. */
    std::uint64_t deadlineFor(std::uint64_t now,
                              std::uint32_t attempt) const;
};

/**
 * Device-side protocol agent: bridges the wire protocol to the
 * firmware client. It sends through a ReplySink (its uplink) and is
 * handed each inbound frame through receive(), so it never knows what
 * transport carries the bytes. When a clock is bound it runs the
 * retry state machine: per-request timeout, bounded exponential
 * backoff with deterministic jitter, and a clean TimedOut outcome
 * once the retransmission budget is exhausted -- a lost frame can no
 * longer wedge an exchange.
 */
class DeviceAgent
{
  public:
    DeviceAgent(std::uint64_t device_id,
                firmware::AuthenticacheClient &client,
                protocol::ReplySink &uplink);

    /** Kick off an authentication round. */
    void requestAuthentication();

    /**
     * Handle one inbound frame (an encoded protocol message). A frame
     * that fails to decode is logged to errors() as "decode: ...".
     */
    void receive(std::span<const std::uint8_t> frame);

    /** Bind the simulated clock enabling timeouts (not owned). */
    void bindClock(const util::SimClock *clk) { simClock = clk; }

    void setRetryPolicy(const RetryPolicy &p) { policy = p; }

    /**
     * Drive the retry state machine one step: retransmit anything
     * past its deadline, or fail the session once the budget is gone.
     * No-op without a bound clock. @return true when it acted.
     */
    bool tick();

    /**
     * An exchange is still in flight: an authentication awaiting its
     * challenge or decision, or a remap awaiting its commit.
     * Heartbeat rounds are deliberately *not* counted: a continuous
     * session never quiesces, so it must not keep stepped drivers
     * (runExchangeSteps) from declaring the foreground work done.
     */
    bool sessionActive() const
    {
        return authPhase != AuthPhase::Idle || !awaitCommit.empty();
    }

    /**
     * How the last authentication round ended: Ok (decision
     * received), Aborted (firmware refused), or TimedOut (retries
     * exhausted). Empty while in flight or before the first round.
     */
    const std::optional<firmware::AuthOutcome::Status> &
    lastAuthStatus() const
    {
        return authStatus;
    }

    /** Decision from the most recent completed authentication. */
    const std::optional<protocol::AuthDecision> &lastDecision() const
    {
        return decision;
    }

    /** Protocol-level errors received. */
    const std::vector<std::string> &errors() const { return errorLog; }

    std::uint64_t remapsProcessed() const { return nRemaps; }

    /** Remap exchanges abandoned after exhausting retransmissions. */
    std::uint64_t remapsTimedOut() const { return nRemapsTimedOut; }

    /** Frames retransmitted by the retry state machine. */
    std::uint64_t retransmissions() const { return nRetransmits; }

    /** Trust score from the most recent TrustUpdate, if any. */
    const std::optional<std::uint32_t> &lastTrust() const
    {
        return trustScore;
    }

    /** Trust tier from the most recent TrustUpdate, if any. */
    const std::optional<std::uint8_t> &lastTier() const
    {
        return trustTier;
    }

    /** Full verdict from the most recent TrustUpdate, if any. */
    const std::optional<protocol::TrustUpdate> &lastVerdict() const
    {
        return lastVerdictMsg;
    }

    /** The server revoked this device's heartbeat session. */
    bool revoked() const { return isRevoked; }

    /** Heartbeat challenges answered (fresh, not cached replays). */
    std::uint64_t heartbeatsAnswered() const { return nHeartbeats; }

  private:
    enum class AuthPhase
    {
        Idle,
        AwaitChallenge,
        AwaitDecision,
    };

    /** A sent frame we may have to retransmit. */
    struct OutstandingSend
    {
        protocol::Message frame;
        std::uint32_t attempt = 0;
        std::uint64_t deadline = 0;
    };

    void armAuthSend(protocol::Message frame);
    void failAuthSession();
    void answerChallenge(const protocol::ChallengeMsg &ch);
    void answerHeartbeat(const protocol::Heartbeat &hb);

    std::uint64_t deviceId;
    firmware::AuthenticacheClient &client;
    protocol::ReplySink &endpoint;
    const util::SimClock *simClock = nullptr;
    RetryPolicy policy;
    std::optional<protocol::AuthDecision> decision;
    std::optional<firmware::AuthOutcome::Status> authStatus;
    AuthPhase authPhase = AuthPhase::Idle;
    OutstandingSend authSend;
    /** Answered auth nonces -> cached response (bounded FIFO). */
    std::unordered_map<std::uint64_t, protocol::ResponseMsg>
        answeredAuths;
    std::deque<std::uint64_t> answeredOrder;
    /** Remap nonce -> ack awaiting the server's commit. */
    std::unordered_map<std::uint64_t, OutstandingSend> awaitCommit;
    /** Answered heartbeat nonces -> cached proof (bounded FIFO). */
    std::unordered_map<std::uint64_t, protocol::HeartbeatProof>
        answeredHeartbeats;
    std::deque<std::uint64_t> heartbeatOrder;
    /** Heartbeat nonce -> proof awaiting the server's TrustUpdate. */
    std::unordered_map<std::uint64_t, OutstandingSend> awaitVerdict;
    std::vector<std::string> errorLog;
    std::uint64_t nRemaps = 0;
    std::uint64_t nRemapsTimedOut = 0;
    std::uint64_t nRetransmits = 0;
    std::unordered_map<std::uint64_t, crypto::Key256>
        pendingRemapKeys;
    std::optional<std::uint32_t> trustScore;
    std::optional<std::uint8_t> trustTier;
    std::optional<protocol::TrustUpdate> lastVerdictMsg;
    bool isRevoked = false;
    std::uint64_t nHeartbeats = 0;
};

} // namespace authenticache::server

#endif // AUTH_SERVER_DEVICE_AGENT_HPP
