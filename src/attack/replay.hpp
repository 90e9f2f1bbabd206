/**
 * @file
 * Replay attacker (paper Sec 4.4 threat model): records frames off the
 * wire and re-injects them later, attempting to reuse an old response
 * to win an authentication. The caller re-sends a captured frame on
 * any client connection and inspects the outcome: against
 * Authenticache the response's nonce is spent, so the server rejects
 * it.
 */

#ifndef AUTH_ATTACK_REPLAY_HPP
#define AUTH_ATTACK_REPLAY_HPP

#include <optional>
#include <vector>

#include "protocol/transcript.hpp"

namespace authenticache::attack {

class ReplayAttacker
{
  public:
    explicit ReplayAttacker(const protocol::Transcript &wiretap)
        : transcript(wiretap)
    {
    }

    /** Most recent response frame seen on the wire, if any. */
    std::optional<std::vector<std::uint8_t>> lastResponseFrame() const;

    /** Most recent client auth request frame, if any. */
    std::optional<std::vector<std::uint8_t>> lastRequestFrame() const;

  private:
    const protocol::Transcript &transcript;
};

} // namespace authenticache::attack

#endif // AUTH_ATTACK_REPLAY_HPP
