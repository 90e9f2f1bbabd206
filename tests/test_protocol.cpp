/**
 * @file
 * Tests for serialization, protocol messages (round trips, framing,
 * corruption detection), and the wiretap transcript. Frames crossing
 * the loopback transport are covered in test_reliability. The
 * encoded bytes of every message type are pinned to
 * tests/golden/messages.txt.
 */

#include <fstream>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "net/wire.hpp"
#include "protocol/messages.hpp"
#include "protocol/serialize.hpp"
#include "protocol/transcript.hpp"
#include "util/crc32.hpp"

namespace p = authenticache::protocol;
namespace core = authenticache::core;
using authenticache::util::BitVec;

TEST(Serialize, ScalarRoundTrip)
{
    p::ByteWriter w;
    w.putU8(0xAB);
    w.putU16(0x1234);
    w.putU32(0xDEADBEEF);
    w.putU64(0x0123456789ABCDEFull);
    w.putString("hello");

    p::ByteReader r(w.bytes());
    EXPECT_EQ(r.getU8(), 0xAB);
    EXPECT_EQ(r.getU16(), 0x1234);
    EXPECT_EQ(r.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.getString(), "hello");
    EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, TruncationThrows)
{
    p::ByteWriter w;
    w.putU16(7);
    p::ByteReader r(w.bytes());
    EXPECT_EQ(r.getU8(), 7);
    EXPECT_THROW(r.getU32(), p::DecodeError);
}

TEST(Serialize, ExpectEndCatchesTrailing)
{
    p::ByteWriter w;
    w.putU32(1);
    p::ByteReader r(w.bytes());
    r.getU16();
    EXPECT_THROW(r.expectEnd(), p::DecodeError);
}

namespace {

core::Challenge
sampleChallenge()
{
    core::Challenge c;
    c.bits.push_back({{{10, 2}, 680}, {{300, 5}, 680}});
    c.bits.push_back({{{77, 0}, 690}, {{1, 7}, 680}});
    return c;
}

} // namespace

TEST(Messages, ChallengeRoundTrip)
{
    p::ChallengeMsg msg;
    msg.nonce = 0xC0FFEE;
    msg.challenge = sampleChallenge();

    auto frame = p::encodeMessage(msg);
    auto decoded = p::decodeMessage(frame);
    auto *out = std::get_if<p::ChallengeMsg>(&decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->nonce, 0xC0FFEEu);
    ASSERT_EQ(out->challenge.size(), 2u);
    EXPECT_EQ(out->challenge.bits[0].a.line.set, 10u);
    EXPECT_EQ(out->challenge.bits[0].b.vddMv, 680u);
    EXPECT_EQ(out->challenge.bits[1].b.line.way, 7u);
}

TEST(Messages, AllTypesRoundTrip)
{
    BitVec resp = BitVec::fromString("1011001110001011");

    std::vector<p::Message> messages{
        p::AuthRequest{42},
        p::ChallengeMsg{7, sampleChallenge()},
        p::ResponseMsg{7, resp},
        p::AuthDecision{7, true, 3},
        p::RemapRequest{9, sampleChallenge(), resp, 5},
        p::RemapAck{9, true},
        p::ErrorMsg{"something failed"},
    };

    for (const auto &msg : messages) {
        auto frame = p::encodeMessage(msg);
        auto decoded = p::decodeMessage(frame);
        EXPECT_EQ(p::messageType(decoded), p::messageType(msg));
    }

    // Spot-check payload fidelity.
    auto decoded =
        p::decodeMessage(p::encodeMessage(p::ResponseMsg{7, resp}));
    EXPECT_EQ(std::get<p::ResponseMsg>(decoded).response, resp);

    auto err = p::decodeMessage(
        p::encodeMessage(p::ErrorMsg{"something failed"}));
    EXPECT_EQ(std::get<p::ErrorMsg>(err).reason, "something failed");
}

TEST(Messages, CorruptionDetectedByCrc)
{
    auto frame = p::encodeMessage(p::AuthRequest{1});
    // Flip a payload byte (after the 4-byte length prefix).
    frame[5] ^= 0x01;
    EXPECT_THROW(p::decodeMessage(frame), p::DecodeError);
}

TEST(Messages, TruncatedFrameThrows)
{
    auto frame = p::encodeMessage(p::AuthRequest{1});
    frame.resize(frame.size() - 3);
    EXPECT_THROW(p::decodeMessage(frame), p::DecodeError);
}

TEST(Messages, TrailingBytesThrow)
{
    auto frame = p::encodeMessage(p::AuthRequest{1});
    frame.push_back(0);
    EXPECT_THROW(p::decodeMessage(frame), p::DecodeError);
}

TEST(Messages, UnknownTypeRejected)
{
    // Hand-build a frame with type tag 99 and a valid CRC.
    p::ByteWriter payload;
    payload.putU8(99);
    p::ByteWriter frame;
    frame.putU32(static_cast<std::uint32_t>(payload.size()));
    frame.putBytes(payload.bytes());
    frame.putU32(
        authenticache::util::crc32(payload.bytes()));
    EXPECT_THROW(p::decodeMessage(frame.bytes()), p::DecodeError);
}

TEST(Transcript, RecordsAndDecodesCrps)
{
    p::Transcript transcript;
    BitVec resp = BitVec::fromString("01");
    transcript.record(p::Direction::ServerToClient,
                      p::encodeMessage(p::ChallengeMsg{
                          11, sampleChallenge()}));
    transcript.record(p::Direction::ClientToServer,
                      p::encodeMessage(p::ResponseMsg{11, resp}));
    // A second, unmatched challenge must not produce a pair.
    transcript.record(p::Direction::ServerToClient,
                      p::encodeMessage(p::ChallengeMsg{
                          12, sampleChallenge()}));

    EXPECT_EQ(transcript.size(), 3u);
    auto crps = transcript.observedCrps();
    ASSERT_EQ(crps.size(), 1u);
    EXPECT_EQ(crps[0].first.size(), 2u);
    EXPECT_EQ(crps[0].second, resp);
}

TEST(Transcript, ClearEmpties)
{
    p::Transcript transcript;
    transcript.record(p::Direction::ClientToServer,
                      p::encodeMessage(p::AuthRequest{1}));
    EXPECT_EQ(transcript.size(), 1u);
    transcript.clear();
    EXPECT_EQ(transcript.size(), 0u);
}

namespace {

/** A @p bits-bit challenge from a fixed LCG; every field varies. */
core::Challenge
goldenChallenge(std::size_t bits)
{
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    auto next = [&x] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(x >> 33);
    };
    core::Challenge c;
    for (std::size_t i = 0; i < bits; ++i) {
        core::ChallengeBit bit;
        bit.a = {{next() % 8192, next() % 8}, 600 + next() % 200};
        bit.b = {{next() % 8192, next() % 8}, 600 + next() % 200};
        c.bits.push_back(bit);
    }
    return c;
}

BitVec
goldenBits(std::size_t n, std::uint64_t seed)
{
    BitVec v(n);
    for (std::size_t i = 0; i < n; ++i)
        v.set(i, ((seed >> (i % 64)) ^ (i / 3)) & 1);
    return v;
}

/** One fixed instance of each of the twelve message types. */
std::vector<std::pair<std::string, p::Message>>
goldenMessages()
{
    p::RemapAck ack{0x5151515151515151ull, true, {}};
    for (std::size_t i = 0; i < ack.confirmation.size(); ++i)
        ack.confirmation[i] = static_cast<std::uint8_t>(0xA0 + i);
    return {
        {"AuthRequest", p::AuthRequest{0x0123456789ABCDEFull}},
        {"ChallengeMsg",
         p::ChallengeMsg{0xFEEDFACECAFEBEEFull, goldenChallenge(128)}},
        {"ResponseMsg",
         p::ResponseMsg{0x1111, goldenBits(77, 0xDEADBEEF12345678ull)}},
        {"AuthDecision", p::AuthDecision{0x2222, true, 17}},
        {"RemapRequest",
         p::RemapRequest{0x3333, goldenChallenge(5),
                         goldenBits(130, 0x0F0F00FF12345678ull), 7}},
        {"RemapAck", ack},
        {"ErrorMsg", p::ErrorMsg{"session expired"}},
        {"RemapCommit", p::RemapCommit{0x4444, true}},
        {"Heartbeat", p::Heartbeat{0x5555, 42, goldenChallenge(4)}},
        {"HeartbeatProof",
         p::HeartbeatProof{0x6666, goldenBits(3, 5)}},
        {"TrustUpdate", p::TrustUpdate{0x7777, 73, 2, false, 9}},
        {"Revoke", p::Revoke{0x8888, "trust exhausted"}},
    };
}

std::string
toHex(std::span<const std::uint8_t> bytes)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    for (auto b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 15];
    }
    return out;
}

/** name -> hex, from the golden file ('#' lines are comments). */
std::map<std::string, std::string>
goldenHex()
{
    std::ifstream in(AUTH_GOLDEN_DIR "/messages.txt");
    std::map<std::string, std::string> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, hex;
        fields >> name >> hex;
        out[name] = hex;
    }
    return out;
}

} // namespace

TEST(Messages, GoldenBytesForEveryType)
{
    auto golden = goldenHex();
    const auto messages = goldenMessages();
    ASSERT_EQ(messages.size(),
              static_cast<std::size_t>(p::MessageType::Revoke));
    for (const auto &[name, msg] : messages) {
        const auto frame = p::encodeMessage(msg);
        EXPECT_EQ(golden[name], toHex(frame))
            << "\nactual: " << name << " " << toHex(frame);
        EXPECT_EQ(p::encodedSize(msg), frame.size()) << name;

        // Round trip: the decoded message re-encodes to the same bytes.
        const p::Message decoded = p::decodeMessage(frame);
        EXPECT_EQ(p::messageType(decoded), p::messageType(msg)) << name;
        EXPECT_EQ(p::encodeMessage(decoded), frame) << name;
    }
}

TEST(Messages, GoldenWireFrames)
{
    namespace net = authenticache::net;
    auto golden = goldenHex();
    const auto messages = goldenMessages();
    const std::vector<std::pair<std::uint64_t, std::size_t>> cases{
        {0x1122334455667788ull, 1}, // ChallengeMsg
        {3, 3},                     // AuthDecision
    };
    for (const auto &[stream, idx] : cases) {
        const auto &[name, msg] = messages[idx];
        const auto wire = net::encodeWireMessage(stream, msg);
        EXPECT_EQ(golden["wire:" + name], toHex(wire))
            << "\nactual: wire:" << name << " " << toHex(wire);

        net::WireDecoder dec;
        dec.feed(wire);
        auto frame = dec.next();
        ASSERT_TRUE(frame.has_value()) << name;
        EXPECT_EQ(frame->stream, stream);
        EXPECT_EQ(frame->payload, p::encodeMessage(msg)) << name;
        EXPECT_EQ(dec.buffered(), 0u);
    }
}
