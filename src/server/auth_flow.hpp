/**
 * @file
 * Per-message state machines for the authentication exchange
 * (AuthRequest -> Challenge, Response -> Decision), extracted from the
 * old monolithic message handler. A flow never touches a transport: it is
 * handed a locked session shard plus the decoded message and returns a
 * FlowOutput -- the replies to emit, an optional completed-auth
 * report, and the nonce of any newly opened session (which the front
 * end ranks for cap eviction in deterministic batch order).
 */

#ifndef AUTH_SERVER_AUTH_FLOW_HPP
#define AUTH_SERVER_AUTH_FLOW_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "protocol/messages.hpp"
#include "server/challenge_gen.hpp"
#include "server/config.hpp"
#include "server/device_directory.hpp"
#include "server/session_manager.hpp"
#include "server/verifier.hpp"

namespace authenticache::server {

/** What servicing one frame produced (merged by the front end). */
struct FlowOutput
{
    /** Replies to send back, in order. */
    std::vector<protocol::Message> replies;

    /** Report of a completed authentication, if one finished. */
    std::optional<AuthReport> report;

    /** Nonce of a session this frame opened (for cap ranking). */
    std::optional<std::uint64_t> openedNonce;
};

class AuthFlow
{
  public:
    AuthFlow(SessionManager &sessions_, DeviceDirectory &devices_,
             ChallengeGenerator &generator_, const Verifier &verifier)
        : sessions(sessions_), devices(devices_),
          generator(generator_), verify(verifier)
    {
    }

    /**
     * Service an AuthRequest on the device's shard: idempotent
     * challenge re-issue for duplicates, fresh challenge otherwise.
     * Caller holds @p sh's mutex; @p sh is the device's shard.
     */
    FlowOutput onRequest(SessionShard &sh,
                         const protocol::AuthRequest &msg)
        AUTH_REQUIRES(sh.mutex);

    /**
     * Service a ResponseMsg on the nonce's shard: verify against the
     * expected response, apply the lockout policy, cache the decision
     * for replay. Caller holds @p sh's mutex.
     */
    FlowOutput onResponse(SessionShard &sh,
                          const protocol::ResponseMsg &msg)
        AUTH_REQUIRES(sh.mutex);

  private:
    SessionManager &sessions;
    DeviceDirectory &devices;
    ChallengeGenerator &generator;
    const Verifier &verify;
};

} // namespace authenticache::server

#endif // AUTH_SERVER_AUTH_FLOW_HPP
