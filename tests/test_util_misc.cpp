/**
 * @file
 * Tests for the table/CSV writer, CRC-32, and the logger.
 */

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace u = authenticache::util;

TEST(Crc32, KnownVector)
{
    // CRC-32/IEEE of "123456789" is 0xCBF43926.
    std::string s = "123456789";
    std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
    EXPECT_EQ(u::crc32(bytes), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero)
{
    EXPECT_EQ(u::crc32({}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    std::string s = "authenticache-protocol-frame";
    std::span<const std::uint8_t> all(
        reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
    auto first = all.subspan(0, 10);
    auto rest = all.subspan(10);
    std::uint32_t inc = u::crc32Update(u::crc32(first), rest);
    EXPECT_EQ(inc, u::crc32(all));
}

TEST(Crc32, DetectsSingleByteChange)
{
    std::string a = "hello world";
    std::string b = "hello worle";
    std::span<const std::uint8_t> sa(
        reinterpret_cast<const std::uint8_t *>(a.data()), a.size());
    std::span<const std::uint8_t> sb(
        reinterpret_cast<const std::uint8_t *>(b.data()), b.size());
    EXPECT_NE(u::crc32(sa), u::crc32(sb));
}

namespace {

/** Bit-at-a-time CRC-32/IEEE: the definition, with no tables. */
std::uint32_t
referenceCrc32(std::span<const std::uint8_t> data)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (auto b : data) {
        c ^= b;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t>
noiseBytes(std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    std::uint64_t x = 0x243F6A8885A308D3ull;
    for (auto &b : out) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        b = static_cast<std::uint8_t>(x >> 56);
    }
    return out;
}

} // namespace

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment)
{
    const auto buf = noiseBytes((64u << 10) + 8);
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len <= 1100; ++len)
        lengths.push_back(len);
    for (std::size_t len : {4095u, 4096u, 4097u, 40000u, 65535u, 65536u})
        lengths.push_back(len);
    for (std::size_t shift = 0; shift < 8; ++shift) {
        for (std::size_t len : lengths) {
            std::span<const std::uint8_t> data(buf.data() + shift, len);
            ASSERT_EQ(u::crc32(data), referenceCrc32(data))
                << "len " << len << " shift " << shift;
        }
    }
}

TEST(Crc32, ChainedUpdateMatchesAtEverySplit)
{
    const auto buf = noiseBytes(1024);
    const std::span<const std::uint8_t> all(buf);
    const std::uint32_t whole = referenceCrc32(all);
    for (std::size_t split = 0; split <= all.size(); ++split) {
        const std::uint32_t head = u::crc32(all.first(split));
        ASSERT_EQ(u::crc32Update(head, all.subspan(split)), whole)
            << "split " << split;
    }
}

TEST(Table, AlignedOutputContainsCells)
{
    u::Table t({"name", "value"});
    t.row().cell("alpha").cell(std::uint64_t(42));
    t.row().cell("beta").cell(2.5, 1);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("2.5"), std::string::npos);
    EXPECT_NE(out.find("name"), std::string::npos);
}

TEST(Table, CsvFormat)
{
    u::Table t({"a", "b"});
    t.row().cell("x").cell("y");
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\nx,y\n");
}

TEST(Table, RowCount)
{
    u::Table t({"a"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.row().cell("1");
    t.row().cell("2");
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Logging, ThresholdSuppresses)
{
    // Capture stderr around a suppressed and an emitted message.
    u::setLogLevel(u::LogLevel::Error);
    testing::internal::CaptureStderr();
    AUTH_LOG_INFO("test") << "hidden";
    AUTH_LOG_ERROR("test") << "visible";
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("hidden"), std::string::npos);
    EXPECT_NE(err.find("visible"), std::string::npos);
    u::setLogLevel(u::LogLevel::Warn);
}

TEST(Logging, OffSilencesEverything)
{
    u::setLogLevel(u::LogLevel::Off);
    testing::internal::CaptureStderr();
    AUTH_LOG_ERROR("test") << "nope";
    EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
    u::setLogLevel(u::LogLevel::Warn);
}
