#include "server/device_agent.hpp"

#include <algorithm>

#include "crypto/fuzzy_extractor.hpp"
#include "util/rng.hpp"

namespace authenticache::server {

std::uint64_t
RetryPolicy::deadlineFor(std::uint64_t now,
                         std::uint32_t attempt) const
{
    std::uint64_t backoff = 0;
    if (attempt > 0) {
        // Bounded exponential: base * 2^(attempt-1), capped.
        std::uint64_t shifted = attempt - 1 >= 63
                                    ? backoffCapSteps
                                    : backoffBaseSteps
                                          << (attempt - 1);
        backoff = std::min(backoffCapSteps, shifted);
    }
    std::uint64_t jitter =
        jitterSteps == 0
            ? 0
            : util::Rng::forStream(jitterSeed, attempt)
                  .nextBelow(jitterSteps + 1);
    return now + timeoutSteps + backoff + jitter;
}

DeviceAgent::DeviceAgent(std::uint64_t device_id,
                         firmware::AuthenticacheClient &client_,
                         protocol::ReplySink &uplink)
    : deviceId(device_id), client(client_), endpoint(uplink)
{
}

void
DeviceAgent::armAuthSend(protocol::Message frame)
{
    endpoint.send(frame);
    authSend.frame = std::move(frame);
    authSend.attempt = 0;
    if (simClock)
        authSend.deadline =
            policy.deadlineFor(simClock->now(), 0);
}

void
DeviceAgent::failAuthSession()
{
    authPhase = AuthPhase::Idle;
    authStatus = firmware::AuthOutcome::Status::TimedOut;
    errorLog.push_back("authentication timed out: retries exhausted");
}

void
DeviceAgent::requestAuthentication()
{
    decision.reset();
    authStatus.reset();
    authPhase = AuthPhase::AwaitChallenge;
    armAuthSend(protocol::AuthRequest{deviceId});
}

void
DeviceAgent::answerChallenge(const protocol::ChallengeMsg &ch)
{
    // A re-issued or duplicated challenge is answered from the cache:
    // the nonce was already evaluated, and re-running the firmware
    // would waste line tests (and could flip noisy bits).
    auto seen = answeredAuths.find(ch.nonce);
    if (seen != answeredAuths.end()) {
        endpoint.send(seen->second);
        if (authPhase == AuthPhase::AwaitChallenge ||
            authPhase == AuthPhase::AwaitDecision) {
            authPhase = AuthPhase::AwaitDecision;
            authSend.frame = seen->second;
            authSend.attempt = 0;
            if (simClock)
                authSend.deadline =
                    policy.deadlineFor(simClock->now(), 0);
        }
        return;
    }

    auto outcome = client.authenticate(ch.challenge);
    if (!outcome.ok()) {
        errorLog.push_back("authentication aborted: " +
                           outcome.abortReason);
        endpoint.send(protocol::ErrorMsg{outcome.abortReason});
        authPhase = AuthPhase::Idle;
        authStatus = outcome.status;
        return;
    }
    protocol::ResponseMsg resp;
    resp.nonce = ch.nonce;
    resp.response = std::move(outcome.response);
    if (answeredAuths.emplace(ch.nonce, resp).second)
        answeredOrder.push_back(ch.nonce);
    while (answeredAuths.size() > 32) {
        answeredAuths.erase(answeredOrder.front());
        answeredOrder.pop_front();
    }
    authPhase = AuthPhase::AwaitDecision;
    armAuthSend(std::move(resp));
}

void
DeviceAgent::answerHeartbeat(const protocol::Heartbeat &hb)
{
    // Duplicated round (a lost TrustUpdate made the server re-issue,
    // or the transport duplicated the frame): replay the cached proof.
    // Re-measuring would burn line tests and could flip noisy bits.
    auto seen = answeredHeartbeats.find(hb.nonce);
    if (seen != answeredHeartbeats.end()) {
        endpoint.send(seen->second);
        return;
    }
    if (isRevoked)
        return;

    auto outcome = client.authenticate(hb.challenge);
    if (!outcome.ok()) {
        errorLog.push_back("heartbeat aborted: " +
                           outcome.abortReason);
        endpoint.send(protocol::ErrorMsg{outcome.abortReason});
        return;
    }
    protocol::HeartbeatProof proof;
    proof.nonce = hb.nonce;
    proof.response = std::move(outcome.response);
    if (answeredHeartbeats.emplace(hb.nonce, proof).second)
        heartbeatOrder.push_back(hb.nonce);
    while (answeredHeartbeats.size() > 32) {
        answeredHeartbeats.erase(heartbeatOrder.front());
        heartbeatOrder.pop_front();
    }
    ++nHeartbeats;
    endpoint.send(proof);
    OutstandingSend waiting;
    waiting.frame = std::move(proof);
    if (simClock)
        waiting.deadline = policy.deadlineFor(simClock->now(), 0);
    awaitVerdict[hb.nonce] = std::move(waiting);
}

void
DeviceAgent::receive(std::span<const std::uint8_t> frame)
{
    protocol::Message msg;
    try {
        msg = protocol::decodeMessage(frame);
    } catch (const protocol::DecodeError &e) {
        errorLog.push_back(std::string("decode: ") + e.what());
        return;
    }

    if (auto *ch = std::get_if<protocol::ChallengeMsg>(&msg)) {
        answerChallenge(*ch);
    } else if (auto *remap =
                   std::get_if<protocol::RemapRequest>(&msg)) {
        // Duplicated request for an exchange already in phase 1:
        // resend the cached ack rather than re-deriving.
        auto seen = awaitCommit.find(remap->nonce);
        if (seen != awaitCommit.end()) {
            endpoint.send(seen->second.frame);
            return;
        }
        // Phase 1: derive the candidate key and prove it with the
        // confirmation MAC; install nothing yet.
        std::optional<crypto::Key256> candidate;
        try {
            crypto::FuzzyExtractor extractor(remap->repetition);
            candidate = client.deriveRemapKey(
                remap->challenge, remap->helper, extractor);
        } catch (const std::exception &e) {
            errorLog.push_back(std::string("remap: ") + e.what());
        }
        protocol::RemapAck ack;
        ack.nonce = remap->nonce;
        ack.success = candidate.has_value();
        if (candidate) {
            pendingRemapKeys[remap->nonce] = *candidate;
            ack.confirmation =
                crypto::keyConfirmation(*candidate, remap->nonce);
        }
        endpoint.send(ack);
        OutstandingSend waiting;
        waiting.frame = ack;
        if (simClock)
            waiting.deadline = policy.deadlineFor(simClock->now(), 0);
        awaitCommit[remap->nonce] = std::move(waiting);
    } else if (auto *commit =
                   std::get_if<protocol::RemapCommit>(&msg)) {
        // Phase 2: the server verified the confirmation.
        awaitCommit.erase(commit->nonce);
        auto it = pendingRemapKeys.find(commit->nonce);
        if (it != pendingRemapKeys.end()) {
            if (commit->committed) {
                client.setMapKey(it->second);
                ++nRemaps;
            }
            pendingRemapKeys.erase(it);
        }
    } else if (auto *dec = std::get_if<protocol::AuthDecision>(&msg)) {
        decision = *dec;
        authPhase = AuthPhase::Idle;
        authStatus = firmware::AuthOutcome::Status::Ok;
    } else if (auto *hb = std::get_if<protocol::Heartbeat>(&msg)) {
        answerHeartbeat(*hb);
    } else if (auto *verdict =
                   std::get_if<protocol::TrustUpdate>(&msg)) {
        awaitVerdict.erase(verdict->nonce);
        trustScore = verdict->trust;
        trustTier = verdict->tier;
        lastVerdictMsg = *verdict;
    } else if (auto *rev = std::get_if<protocol::Revoke>(&msg)) {
        if (rev->deviceId == deviceId) {
            isRevoked = true;
            awaitVerdict.clear();
            answeredHeartbeats.clear();
            heartbeatOrder.clear();
            errorLog.push_back("revoked: " + rev->reason);
        }
    } else if (auto *err = std::get_if<protocol::ErrorMsg>(&msg)) {
        // Transport-level errors (decode failures, dead nonces) are
        // logged but do not end the session: the retry state machine
        // either recovers it or times it out cleanly.
        errorLog.push_back(err->reason);
    }
}

bool
DeviceAgent::tick()
{
    if (!simClock)
        return false;
    const std::uint64_t step = simClock->now();
    bool acted = false;

    if (authPhase != AuthPhase::Idle && authSend.deadline <= step) {
        if (authSend.attempt + 1 >= policy.maxAttempts) {
            failAuthSession();
        } else {
            ++authSend.attempt;
            ++nRetransmits;
            endpoint.send(authSend.frame);
            authSend.deadline =
                policy.deadlineFor(step, authSend.attempt);
        }
        acted = true;
    }

    for (auto it = awaitCommit.begin(); it != awaitCommit.end();) {
        if (it->second.deadline > step) {
            ++it;
            continue;
        }
        if (it->second.attempt + 1 >= policy.maxAttempts) {
            pendingRemapKeys.erase(it->first);
            ++nRemapsTimedOut;
            errorLog.push_back(
                "remap timed out: retries exhausted");
            it = awaitCommit.erase(it);
        } else {
            ++it->second.attempt;
            ++nRetransmits;
            endpoint.send(it->second.frame);
            it->second.deadline =
                policy.deadlineFor(step, it->second.attempt);
            ++it;
        }
        acted = true;
    }

    // A lost HeartbeatProof is retransmitted like a remap ack; once
    // the budget is gone the round is abandoned -- the server's
    // cadence wheel scores it as missed and decays trust, so a silent
    // client cannot coast on an old score.
    for (auto it = awaitVerdict.begin(); it != awaitVerdict.end();) {
        if (it->second.deadline > step) {
            ++it;
            continue;
        }
        if (it->second.attempt + 1 >= policy.maxAttempts) {
            errorLog.push_back(
                "heartbeat proof timed out: retries exhausted");
            it = awaitVerdict.erase(it);
        } else {
            ++it->second.attempt;
            ++nRetransmits;
            endpoint.send(it->second.frame);
            it->second.deadline =
                policy.deadlineFor(step, it->second.attempt);
            ++it;
        }
        acted = true;
    }
    return acted;
}

} // namespace authenticache::server
