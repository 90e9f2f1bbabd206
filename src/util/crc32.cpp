#include "util/crc32.hpp"

#include <array>

namespace authenticache::util {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables for the reflected IEEE polynomial. tables[0] is
 * the classic bytewise table; tables[k][b] is the CRC of byte b
 * followed by k zero bytes, so eight table lookups advance the CRC by
 * eight input bytes at once.
 */
constexpr Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
    return t;
}

constexpr Tables kTables = makeTables();

std::uint32_t
load32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data)
{
    const auto &t = kTables;
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    const std::uint8_t *p = data.data();
    std::size_t n = data.size();
    for (; n >= 8; n -= 8, p += 8) {
        const std::uint32_t lo = load32(p) ^ c;
        const std::uint32_t hi = load32(p + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p) // Tail of fewer than 8 bytes.
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::uint32_t
crc32(std::span<const std::uint8_t> data)
{
    return crc32Update(0, data);
}

} // namespace authenticache::util
