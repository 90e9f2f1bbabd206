#include "net/wire.hpp"

#include "protocol/serialize.hpp"
#include "util/crc32.hpp"

namespace authenticache::net {

const char *
wireErrorName(WireError e)
{
    switch (e) {
      case WireError::None: return "none";
      case WireError::BadMagic: return "bad-magic";
      case WireError::Oversized: return "oversized";
      case WireError::Undersized: return "undersized";
      case WireError::BadCrc: return "bad-crc";
    }
    return "?";
}

namespace {

/**
 * One wire frame in one buffer: the header with a length placeholder,
 * the payload @p put appends, then the length patched in place and
 * the CRC over everything after the magic (streamId, length,
 * payload), so encoder and decoder agree byte-for-byte on the covered
 * range.
 */
template <typename Put>
std::vector<std::uint8_t>
buildWireFrame(std::uint64_t stream, std::size_t payload_size, Put put)
{
    protocol::ByteWriter w;
    w.reserve(kWireHeaderBytes + payload_size + kWireTrailerBytes);
    w.putU32(kWireMagic);
    w.putU64(stream);
    w.putU32(0);
    put(w);
    w.patchU32(12, static_cast<std::uint32_t>(w.size() -
                                              kWireHeaderBytes));
    w.putU32(util::crc32(
        std::span<const std::uint8_t>(w.bytes()).subspan(4)));
    return w.take();
}

} // namespace

std::vector<std::uint8_t>
encodeWireFrame(std::uint64_t stream,
                std::span<const std::uint8_t> payload)
{
    return buildWireFrame(stream, payload.size(),
                          [&](protocol::ByteWriter &w) {
                              w.putBytes(payload);
                          });
}

std::vector<std::uint8_t>
encodeWireMessage(std::uint64_t stream, const protocol::Message &m)
{
    return buildWireFrame(stream, protocol::encodedSize(m),
                          [&](protocol::ByteWriter &w) {
                              protocol::encodeMessageInto(w, m);
                          });
}

std::uint32_t
WireDecoder::peekU32(std::size_t off) const
{
    return protocol::loadLE<std::uint32_t>(buf.data() + head + off);
}

std::uint64_t
WireDecoder::peekU64(std::size_t off) const
{
    return protocol::loadLE<std::uint64_t>(buf.data() + head + off);
}

void
WireDecoder::feed(std::span<const std::uint8_t> data)
{
    if (failed())
        return;
    // Compact lazily: only when the dead prefix dominates, so feeding
    // one byte at a time (slow-loris) stays O(1) amortized.
    if (head > 4096 && head > buf.size() / 2) {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
    }
    buf.insert(buf.end(), data.begin(), data.end());
}

std::optional<WireFrame>
WireDecoder::next()
{
    if (failed())
        return std::nullopt;
    if (buffered() < kWireHeaderBytes)
        return std::nullopt; // Torn header: wait for more bytes.

    if (peekU32(0) != kWireMagic) {
        err = WireError::BadMagic;
        return std::nullopt;
    }
    const std::uint64_t stream = peekU64(4);
    const std::size_t len = peekU32(12);
    if (len > kMaxWirePayload) {
        err = WireError::Oversized;
        return std::nullopt;
    }
    if (len < kMinWirePayload) {
        err = WireError::Undersized;
        return std::nullopt;
    }
    const std::size_t total =
        kWireHeaderBytes + len + kWireTrailerBytes;
    if (buffered() < total)
        return std::nullopt; // Torn payload: wait for more bytes.

    // CRC over streamId + length + payload (everything but the magic
    // and the trailer itself).
    std::span<const std::uint8_t> covered(buf.data() + head + 4,
                                          8 + 4 + len);
    if (util::crc32(covered) != peekU32(kWireHeaderBytes + len)) {
        err = WireError::BadCrc;
        return std::nullopt;
    }

    WireFrame frame;
    frame.stream = stream;
    frame.payload.assign(buf.begin() + static_cast<std::ptrdiff_t>(
                                           head + kWireHeaderBytes),
                         buf.begin() + static_cast<std::ptrdiff_t>(
                                           head + kWireHeaderBytes +
                                           len));
    head += total;
    if (head == buf.size()) {
        buf.clear();
        head = 0;
    }
    return frame;
}

} // namespace authenticache::net
