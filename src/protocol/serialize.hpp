/**
 * @file
 * Bounds-checked little-endian binary serialization for protocol
 * frames.
 */

#ifndef AUTH_PROTOCOL_SERIALIZE_HPP
#define AUTH_PROTOCOL_SERIALIZE_HPP

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace authenticache::protocol {

/** Thrown on malformed input (truncation, bad tags, CRC mismatch). */
class DecodeError : public std::runtime_error
{
  public:
    explicit DecodeError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Store @p v little-endian at @p p (sizeof(T) bytes). */
template <typename T>
inline void
storeLE(std::uint8_t *p, T v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, sizeof v);
    } else {
        for (std::size_t i = 0; i < sizeof v; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

/** Load a little-endian T from @p p (sizeof(T) bytes). */
template <typename T>
inline T
loadLE(const std::uint8_t *p)
{
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof v);
    } else {
        for (std::size_t i = 0; i < sizeof v; ++i)
            v |= static_cast<T>(p[i]) << (8 * i);
    }
    return v;
}

/** Append-only byte buffer with little-endian encoders. */
class ByteWriter
{
  public:
    void putU8(std::uint8_t v) { buffer.push_back(v); }
    void putU16(std::uint16_t v) { storeLE(extend(2), v); }
    void putU32(std::uint32_t v) { storeLE(extend(4), v); }
    void putU64(std::uint64_t v) { storeLE(extend(8), v); }
    void putBytes(std::span<const std::uint8_t> bytes)
    {
        buffer.insert(buffer.end(), bytes.begin(), bytes.end());
    }
    void putString(const std::string &s); // u32 length prefix.

    /**
     * Grow by @p count bytes and return where they start, for block
     * encoders that fill a whole run with storeLE. The pointer is
     * valid until the next write.
     */
    std::uint8_t *extend(std::size_t count)
    {
        const std::size_t at = buffer.size();
        buffer.resize(at + count);
        return buffer.data() + at;
    }

    /** Overwrite the u32 at byte @p offset (a length placeholder). */
    void patchU32(std::size_t offset, std::uint32_t v)
    {
        storeLE(buffer.data() + offset, v);
    }

    void reserve(std::size_t count) { buffer.reserve(count); }

    const std::vector<std::uint8_t> &bytes() const { return buffer; }
    std::vector<std::uint8_t> take() { return std::move(buffer); }
    std::size_t size() const { return buffer.size(); }

  private:
    std::vector<std::uint8_t> buffer;
};

/** Cursor over a byte span; every read is bounds checked. */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const std::uint8_t> data_)
        : data(data_)
    {
    }

    std::uint8_t getU8() { return *consume(1); }
    std::uint16_t getU16() { return loadLE<std::uint16_t>(consume(2)); }
    std::uint32_t getU32() { return loadLE<std::uint32_t>(consume(4)); }
    std::uint64_t getU64() { return loadLE<std::uint64_t>(consume(8)); }
    std::vector<std::uint8_t> getBytes(std::size_t count)
    {
        const std::uint8_t *p = consume(count);
        return std::vector<std::uint8_t>(p, p + count);
    }
    std::string getString();

    /**
     * Consume @p count bytes and return where they start, for block
     * decoders that check a whole run's length once.
     */
    const std::uint8_t *consume(std::size_t count)
    {
        if (remaining() < count)
            truncated();
        const std::uint8_t *p = data.data() + offset;
        offset += count;
        return p;
    }

    std::size_t remaining() const { return data.size() - offset; }
    bool exhausted() const { return remaining() == 0; }

    /** Throw unless every byte has been consumed. */
    void expectEnd() const;

  private:
    [[noreturn]] static void truncated();

    std::span<const std::uint8_t> data;
    std::size_t offset = 0;
};

} // namespace authenticache::protocol

#endif // AUTH_PROTOCOL_SERIALIZE_HPP
