/**
 * @file
 * Tests for serialization, protocol messages (round trips, framing,
 * corruption detection), and the wiretap transcript. Frames crossing
 * the loopback transport are covered in test_reliability.
 */

#include <gtest/gtest.h>

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
