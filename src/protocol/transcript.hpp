/**
 * @file
 * Passive wiretap: every protocol frame that crosses a transport, as
 * an eavesdropper would see it -- the observation surface of the
 * paper's threat model (Sec 4.4) and of the model-building attack
 * study (Sec 6.7). net::LoopbackTransport feeds it.
 */

#ifndef AUTH_PROTOCOL_TRANSCRIPT_HPP
#define AUTH_PROTOCOL_TRANSCRIPT_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "protocol/messages.hpp"

namespace authenticache::protocol {

/** Which way a frame travelled. */
enum class Direction
{
    ClientToServer,
    ServerToClient,
};

/** One captured frame, as an eavesdropper would see it. */
struct TranscriptEntry
{
    Direction direction;
    std::vector<std::uint8_t> frame;
};

/** Passive wiretap recording every frame crossing a transport. */
class Transcript
{
  public:
    void record(Direction d, const std::vector<std::uint8_t> &frame);

    const std::vector<TranscriptEntry> &entries() const
    {
        return log;
    }

    std::size_t size() const { return log.size(); }
    void clear() { log.clear(); }

    /**
     * Decode all observed (challenge, response) pairs by matching
     * nonces -- exactly what a model-building attacker extracts.
     */
    std::vector<std::pair<core::Challenge, util::BitVec>>
    observedCrps() const;

  private:
    std::vector<TranscriptEntry> log;
};

} // namespace authenticache::protocol

#endif // AUTH_PROTOCOL_TRANSCRIPT_HPP
