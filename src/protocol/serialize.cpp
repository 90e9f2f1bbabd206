#include "protocol/serialize.hpp"

namespace authenticache::protocol {

void
ByteWriter::putString(const std::string &s)
{
    putU32(static_cast<std::uint32_t>(s.size()));
    putBytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t *>(s.data()), s.size()));
}

std::string
ByteReader::getString()
{
    std::uint32_t len = getU32();
    const auto *p = reinterpret_cast<const char *>(consume(len));
    return std::string(p, len);
}

void
ByteReader::truncated()
{
    throw DecodeError("truncated message");
}

void
ByteReader::expectEnd() const
{
    if (!exhausted())
        throw DecodeError("trailing bytes after message");
}

} // namespace authenticache::protocol
