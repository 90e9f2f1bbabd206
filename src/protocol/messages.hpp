/**
 * @file
 * Authentication protocol messages (paper Figures 6 and 7).
 *
 * Frame format on the wire:
 *
 *     [u32 payload_len][u8 type][payload bytes][u32 crc32]
 *
 * where the CRC covers type + payload. Challenges carry *logical*
 * coordinates; responses carry raw bits. The remap request carries the
 * reserved-voltage challenge plus the key-derivation helper data.
 */

#ifndef AUTH_PROTOCOL_MESSAGES_HPP
#define AUTH_PROTOCOL_MESSAGES_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/challenge.hpp"
#include "protocol/serialize.hpp"
#include "util/bitvec.hpp"

namespace authenticache::protocol {

/** Wire identifier of each message type. */
enum class MessageType : std::uint8_t
{
    AuthRequest = 1,
    ChallengeMsg = 2,
    ResponseMsg = 3,
    AuthDecision = 4,
    RemapRequest = 5,
    RemapAck = 6,
    ErrorMsg = 7,
    RemapCommit = 8,
    Heartbeat = 9,
    HeartbeatProof = 10,
    TrustUpdate = 11,
    Revoke = 12,
};

/**
 * Graceful-degradation tier reported with each heartbeat verdict.
 * Ordered by severity; the server moves a device down the ladder as
 * its trust score decays and back up as clean heartbeats accumulate.
 */
enum class TrustTier : std::uint8_t
{
    Nominal = 0,         ///< Low-cost heartbeats only.
    StepUp = 1,          ///< Next heartbeat uses a full-width challenge.
    RemapScheduled = 2,  ///< Proactive remap issued alongside verdict.
    ReenrollRequired = 3,///< Remap budget exhausted; auth refused.
    Revoked = 4,         ///< Device revoked pending admin unlock.
};

/** Client -> server: start an authentication. */
struct AuthRequest
{
    std::uint64_t deviceId = 0;
};

/** Server -> client: the challenge to evaluate. */
struct ChallengeMsg
{
    std::uint64_t nonce = 0;
    core::Challenge challenge;
};

/** Client -> server: the PUF response. */
struct ResponseMsg
{
    std::uint64_t nonce = 0;
    util::BitVec response;
};

/** Server -> client: accept/reject. */
struct AuthDecision
{
    std::uint64_t nonce = 0;
    bool accepted = false;
    std::uint32_t hammingDistance = 0;
};

/** Server -> client: adaptive remap request (Sec 4.5). */
struct RemapRequest
{
    std::uint64_t nonce = 0;
    core::Challenge challenge;   ///< At a reserved voltage.
    util::BitVec helper;         ///< Key-derivation helper data.
    std::uint32_t repetition = 5;///< Fuzzy-extractor repetition factor.
};

/**
 * Client -> server: remap phase 1 done. Carries a key-confirmation
 * MAC (HMAC of a fixed label and the nonce under the derived key) so
 * the server can detect a mis-derived key *before* either side
 * commits; the MAC reveals nothing about the key itself. The response
 * to the reserved challenge stays secret throughout.
 */
struct RemapAck
{
    std::uint64_t nonce = 0;
    bool success = false;
    std::array<std::uint8_t, 32> confirmation{};
};

/**
 * Server -> client: remap phase 2. committed=true means the server
 * verified the confirmation and switched to the new key; the client
 * installs it on receipt. committed=false aborts the exchange on
 * both sides (keys unchanged).
 */
struct RemapCommit
{
    std::uint64_t nonce = 0;
    bool committed = false;
};

/** Either direction: protocol-level failure. */
struct ErrorMsg
{
    std::string reason;
};

/**
 * Server -> client: one round of a long-lived heartbeat session.
 * `seq` numbers the rounds within the session so transcripts order
 * totally even when the cadence interleaves with other traffic.
 */
struct Heartbeat
{
    std::uint64_t nonce = 0;
    std::uint64_t seq = 0;
    core::Challenge challenge;
};

/** Client -> server: response to a heartbeat challenge. */
struct HeartbeatProof
{
    std::uint64_t nonce = 0;
    util::BitVec response;
};

/**
 * Server -> client: heartbeat verdict plus the device's updated trust
 * score and degradation tier, so the client can observe its own decay
 * trajectory (and anticipate a step-up or remap).
 */
struct TrustUpdate
{
    std::uint64_t nonce = 0;
    std::uint32_t trust = 0;
    std::uint8_t tier = 0; ///< A TrustTier value.
    bool accepted = false;
    std::uint32_t hammingDistance = 0;
};

/**
 * Server -> client: the device has been revoked (trust exhausted).
 * Also used by the CLI as an admin command record. Authentication is
 * refused until an admin unlock clears the flag.
 */
struct Revoke
{
    std::uint64_t deviceId = 0;
    std::string reason;
};

using Message =
    std::variant<AuthRequest, ChallengeMsg, ResponseMsg, AuthDecision,
                 RemapRequest, RemapAck, ErrorMsg, RemapCommit,
                 Heartbeat, HeartbeatProof, TrustUpdate, Revoke>;

/** Type tag of a decoded message. */
MessageType messageType(const Message &m);

/**
 * Peek a framed message's type tag without decoding (the tag sits
 * right after the u32 payload length). std::nullopt on frames too
 * short to carry a tag or with an unknown tag; full validation stays
 * with decodeMessage.
 */
std::optional<MessageType>
peekMessageType(std::span<const std::uint8_t> frame);

/** Encode a message into a framed byte vector (with CRC). */
std::vector<std::uint8_t> encodeMessage(const Message &m);

/**
 * Decode a framed byte vector; throws DecodeError on truncation, bad
 * type tags, CRC mismatch, or trailing bytes.
 *
 * Challenge geometry is validated against @p geom when provided.
 */
Message decodeMessage(std::span<const std::uint8_t> frame);

/**
 * Where a message goes: the outbound half of one stream. The batch
 * front end addresses each frame's replies through it (a wire stream's
 * sink in net::TransportCore, or any in-process collector), and a
 * DeviceAgent sends its requests through one, so neither side knows
 * what carries the bytes.
 */
class ReplySink
{
  public:
    virtual ~ReplySink() = default;

    /** Deliver one protocol message to the peer. */
    virtual void send(const Message &m) = 0;
};

/**
 * In-process sink that encodes each message as a transport stream
 * does and keeps the frames, in order, until the owner reads or
 * clears them.
 */
struct EncodingSink : ReplySink
{
    void send(const Message &m) override
    {
        frames.push_back(encodeMessage(m));
    }

    std::vector<std::vector<std::uint8_t>> frames;
};

/** Serialization helpers shared with storage code. */
void encodeChallenge(ByteWriter &w, const core::Challenge &c);
core::Challenge decodeChallenge(ByteReader &r);
void encodeBitVec(ByteWriter &w, const util::BitVec &v);
util::BitVec decodeBitVec(ByteReader &r);

} // namespace authenticache::protocol

#endif // AUTH_PROTOCOL_MESSAGES_HPP
