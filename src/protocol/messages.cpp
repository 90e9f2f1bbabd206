#include "protocol/messages.hpp"

#include <algorithm>

#include "util/crc32.hpp"

namespace authenticache::protocol {

namespace {

/** Six u32 fields per challenge bit: (set, way, vdd) for A then B. */
constexpr std::size_t kChallengeBitBytes = 6 * 4;

} // namespace

void
encodeChallenge(ByteWriter &w, const core::Challenge &c)
{
    w.putU32(static_cast<std::uint32_t>(c.size()));
    std::uint8_t *p = w.extend(c.size() * kChallengeBitBytes);
    for (const auto &bit : c.bits) {
        storeLE<std::uint32_t>(p, bit.a.line.set);
        storeLE<std::uint32_t>(p + 4, bit.a.line.way);
        storeLE<std::uint32_t>(p + 8, bit.a.vddMv);
        storeLE<std::uint32_t>(p + 12, bit.b.line.set);
        storeLE<std::uint32_t>(p + 16, bit.b.line.way);
        storeLE<std::uint32_t>(p + 20, bit.b.vddMv);
        p += kChallengeBitBytes;
    }
}

core::Challenge
decodeChallenge(ByteReader &r)
{
    core::Challenge c;
    std::uint32_t n = r.getU32();
    if (n > 1u << 20)
        throw DecodeError("challenge unreasonably large");
    const std::uint8_t *p = r.consume(n * kChallengeBitBytes);
    c.bits.resize(n);
    for (auto &bit : c.bits) {
        bit.a.line.set = loadLE<std::uint32_t>(p);
        bit.a.line.way = loadLE<std::uint32_t>(p + 4);
        bit.a.vddMv = loadLE<std::uint32_t>(p + 8);
        bit.b.line.set = loadLE<std::uint32_t>(p + 12);
        bit.b.line.way = loadLE<std::uint32_t>(p + 16);
        bit.b.vddMv = loadLE<std::uint32_t>(p + 20);
        p += kChallengeBitBytes;
    }
    return c;
}

void
encodeBitVec(ByteWriter &w, const util::BitVec &v)
{
    w.putU64(v.size());
    const auto &words = v.words();
    std::uint8_t *p = w.extend(words.size() * 8);
    for (auto word : words) {
        storeLE<std::uint64_t>(p, word);
        p += 8;
    }
}

util::BitVec
decodeBitVec(ByteReader &r)
{
    std::uint64_t nbits = r.getU64();
    if (nbits > 1u << 24)
        throw DecodeError("bit vector unreasonably large");
    std::size_t nwords = (nbits + 63) / 64;
    const std::uint8_t *p = r.consume(nwords * 8);
    std::vector<std::uint64_t> words(nwords);
    for (auto &word : words) {
        word = loadLE<std::uint64_t>(p);
        p += 8;
    }
    return util::BitVec::fromWords(std::move(words), nbits);
}

MessageType
messageType(const Message &m)
{
    return std::visit(
        [](const auto &v) -> MessageType {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, AuthRequest>)
                return MessageType::AuthRequest;
            else if constexpr (std::is_same_v<T, ChallengeMsg>)
                return MessageType::ChallengeMsg;
            else if constexpr (std::is_same_v<T, ResponseMsg>)
                return MessageType::ResponseMsg;
            else if constexpr (std::is_same_v<T, AuthDecision>)
                return MessageType::AuthDecision;
            else if constexpr (std::is_same_v<T, RemapRequest>)
                return MessageType::RemapRequest;
            else if constexpr (std::is_same_v<T, RemapAck>)
                return MessageType::RemapAck;
            else if constexpr (std::is_same_v<T, RemapCommit>)
                return MessageType::RemapCommit;
            else if constexpr (std::is_same_v<T, Heartbeat>)
                return MessageType::Heartbeat;
            else if constexpr (std::is_same_v<T, HeartbeatProof>)
                return MessageType::HeartbeatProof;
            else if constexpr (std::is_same_v<T, TrustUpdate>)
                return MessageType::TrustUpdate;
            else if constexpr (std::is_same_v<T, Revoke>)
                return MessageType::Revoke;
            else
                return MessageType::ErrorMsg;
        },
        m);
}

std::optional<MessageType>
peekMessageType(std::span<const std::uint8_t> frame)
{
    if (frame.size() < 5)
        return std::nullopt;
    const std::uint8_t tag = frame[4]; // After the u32 payload length.
    if (tag < static_cast<std::uint8_t>(MessageType::AuthRequest) ||
        tag > static_cast<std::uint8_t>(MessageType::Revoke))
        return std::nullopt;
    return static_cast<MessageType>(tag);
}

namespace {

void
encodePayload(ByteWriter &w, const Message &m)
{
    std::visit(
        [&](const auto &v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, AuthRequest>) {
                w.putU64(v.deviceId);
            } else if constexpr (std::is_same_v<T, ChallengeMsg>) {
                w.putU64(v.nonce);
                encodeChallenge(w, v.challenge);
            } else if constexpr (std::is_same_v<T, ResponseMsg>) {
                w.putU64(v.nonce);
                encodeBitVec(w, v.response);
            } else if constexpr (std::is_same_v<T, AuthDecision>) {
                w.putU64(v.nonce);
                w.putU8(v.accepted ? 1 : 0);
                w.putU32(v.hammingDistance);
            } else if constexpr (std::is_same_v<T, RemapRequest>) {
                w.putU64(v.nonce);
                encodeChallenge(w, v.challenge);
                encodeBitVec(w, v.helper);
                w.putU32(v.repetition);
            } else if constexpr (std::is_same_v<T, RemapAck>) {
                w.putU64(v.nonce);
                w.putU8(v.success ? 1 : 0);
                w.putBytes(v.confirmation);
            } else if constexpr (std::is_same_v<T, RemapCommit>) {
                w.putU64(v.nonce);
                w.putU8(v.committed ? 1 : 0);
            } else if constexpr (std::is_same_v<T, Heartbeat>) {
                w.putU64(v.nonce);
                w.putU64(v.seq);
                encodeChallenge(w, v.challenge);
            } else if constexpr (std::is_same_v<T, HeartbeatProof>) {
                w.putU64(v.nonce);
                encodeBitVec(w, v.response);
            } else if constexpr (std::is_same_v<T, TrustUpdate>) {
                w.putU64(v.nonce);
                w.putU32(v.trust);
                w.putU8(v.tier);
                w.putU8(v.accepted ? 1 : 0);
                w.putU32(v.hammingDistance);
            } else if constexpr (std::is_same_v<T, Revoke>) {
                w.putU64(v.deviceId);
                w.putString(v.reason);
            } else {
                w.putString(v.reason);
            }
        },
        m);
}

Message
decodePayload(MessageType type, ByteReader &r)
{
    switch (type) {
      case MessageType::AuthRequest: {
        AuthRequest m;
        m.deviceId = r.getU64();
        return m;
      }
      case MessageType::ChallengeMsg: {
        ChallengeMsg m;
        m.nonce = r.getU64();
        m.challenge = decodeChallenge(r);
        return m;
      }
      case MessageType::ResponseMsg: {
        ResponseMsg m;
        m.nonce = r.getU64();
        m.response = decodeBitVec(r);
        return m;
      }
      case MessageType::AuthDecision: {
        AuthDecision m;
        m.nonce = r.getU64();
        m.accepted = r.getU8() != 0;
        m.hammingDistance = r.getU32();
        return m;
      }
      case MessageType::RemapRequest: {
        RemapRequest m;
        m.nonce = r.getU64();
        m.challenge = decodeChallenge(r);
        m.helper = decodeBitVec(r);
        m.repetition = r.getU32();
        return m;
      }
      case MessageType::RemapAck: {
        RemapAck m;
        m.nonce = r.getU64();
        m.success = r.getU8() != 0;
        const std::uint8_t *p = r.consume(m.confirmation.size());
        std::copy(p, p + m.confirmation.size(),
                  m.confirmation.begin());
        return m;
      }
      case MessageType::ErrorMsg: {
        ErrorMsg m;
        m.reason = r.getString();
        return m;
      }
      case MessageType::RemapCommit: {
        RemapCommit m;
        m.nonce = r.getU64();
        m.committed = r.getU8() != 0;
        return m;
      }
      case MessageType::Heartbeat: {
        Heartbeat m;
        m.nonce = r.getU64();
        m.seq = r.getU64();
        m.challenge = decodeChallenge(r);
        return m;
      }
      case MessageType::HeartbeatProof: {
        HeartbeatProof m;
        m.nonce = r.getU64();
        m.response = decodeBitVec(r);
        return m;
      }
      case MessageType::TrustUpdate: {
        TrustUpdate m;
        m.nonce = r.getU64();
        m.trust = r.getU32();
        m.tier = r.getU8();
        m.accepted = r.getU8() != 0;
        m.hammingDistance = r.getU32();
        return m;
      }
      case MessageType::Revoke: {
        Revoke m;
        m.deviceId = r.getU64();
        m.reason = r.getString();
        return m;
      }
    }
    throw DecodeError("unknown message type");
}

} // namespace

std::size_t
encodedSize(const Message &m)
{
    auto challenge = [](const core::Challenge &c) {
        return 4 + c.size() * kChallengeBitBytes;
    };
    auto bitvec = [](const util::BitVec &v) {
        return 8 + v.words().size() * 8;
    };
    const std::size_t payload = std::visit(
        [&](const auto &v) -> std::size_t {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, AuthRequest>)
                return 8;
            else if constexpr (std::is_same_v<T, ChallengeMsg>)
                return 8 + challenge(v.challenge);
            else if constexpr (std::is_same_v<T, ResponseMsg> ||
                               std::is_same_v<T, HeartbeatProof>)
                return 8 + bitvec(v.response);
            else if constexpr (std::is_same_v<T, AuthDecision>)
                return 8 + 1 + 4;
            else if constexpr (std::is_same_v<T, RemapRequest>)
                return 8 + challenge(v.challenge) + bitvec(v.helper) + 4;
            else if constexpr (std::is_same_v<T, RemapAck>)
                return 8 + 1 + v.confirmation.size();
            else if constexpr (std::is_same_v<T, RemapCommit>)
                return 8 + 1;
            else if constexpr (std::is_same_v<T, Heartbeat>)
                return 8 + 8 + challenge(v.challenge);
            else if constexpr (std::is_same_v<T, TrustUpdate>)
                return 8 + 4 + 1 + 1 + 4;
            else if constexpr (std::is_same_v<T, Revoke>)
                return 8 + 4 + v.reason.size();
            else
                return 4 + v.reason.size();
        },
        m);
    return 4 + 1 + payload + 4;
}

void
encodeMessageInto(ByteWriter &w, const Message &m)
{
    // One pass: a length placeholder, then type and payload, then the
    // length patched in place and the CRC over what was just written.
    const std::size_t start = w.size();
    w.putU32(0);
    w.putU8(static_cast<std::uint8_t>(messageType(m)));
    encodePayload(w, m);
    const std::size_t len = w.size() - start - 4;
    w.patchU32(start, static_cast<std::uint32_t>(len));
    w.putU32(util::crc32(
        std::span<const std::uint8_t>(w.bytes()).subspan(start + 4,
                                                         len)));
}

std::vector<std::uint8_t>
encodeMessage(const Message &m)
{
    ByteWriter w;
    w.reserve(encodedSize(m));
    encodeMessageInto(w, m);
    return w.take();
}

Message
decodeMessage(std::span<const std::uint8_t> frame)
{
    ByteReader r(frame);
    std::uint32_t len = r.getU32();
    std::span<const std::uint8_t> payload(r.consume(len), len);
    std::uint32_t crc = r.getU32();
    r.expectEnd();
    if (util::crc32(payload) != crc)
        throw DecodeError("CRC mismatch");

    ByteReader pr(payload);
    auto raw_type = pr.getU8();
    if (raw_type < 1 ||
        raw_type > static_cast<std::uint8_t>(MessageType::Revoke))
        throw DecodeError("unknown message type");
    Message m = decodePayload(static_cast<MessageType>(raw_type), pr);
    pr.expectEnd();
    return m;
}

} // namespace authenticache::protocol
