#include "server/database.hpp"

#include <algorithm>
#include <bit>

#include "core/crp.hpp"

namespace authenticache::server {

std::size_t
PairKeySet::slotOf(std::uint64_t key) const
{
    // Fibonacci hashing: the top bits of key * 2^64/phi index the
    // table, which spreads the (lo << 32 | hi) keys of nearby lines.
    const int shift = std::countl_zero(slots.size()) + 1;
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    shift);
}

bool
PairKeySet::contains(std::uint64_t key) const
{
    if (key == kFree)
        return hasFreeKey;
    if (slots.empty())
        return false;
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = slotOf(key);; i = (i + 1) & mask) {
        if (slots[i] == key)
            return true;
        if (slots[i] == kFree)
            return false;
    }
}

bool
PairKeySet::insert(std::uint64_t key)
{
    if (key == kFree) {
        if (hasFreeKey)
            return false;
        hasFreeKey = true;
        ++count;
        return true;
    }
    if ((count + 1) * 4 > slots.size() * 3)
        rehash(std::max<std::size_t>(16, slots.size() * 2));
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = slotOf(key);; i = (i + 1) & mask) {
        if (slots[i] == key)
            return false;
        if (slots[i] == kFree) {
            slots[i] = key;
            ++count;
            return true;
        }
    }
}

void
PairKeySet::reserve(std::size_t n)
{
    std::size_t capacity = std::max<std::size_t>(16, slots.size());
    while (n * 4 > capacity * 3)
        capacity *= 2;
    if (capacity != slots.size())
        rehash(capacity);
}

void
PairKeySet::rehash(std::size_t capacity)
{
    std::vector<std::uint64_t> old(capacity, kFree);
    old.swap(slots);
    const std::size_t mask = capacity - 1;
    for (auto key : old) {
        if (key == kFree)
            continue;
        std::size_t i = slotOf(key);
        while (slots[i] != kFree)
            i = (i + 1) & mask;
        slots[i] = key;
    }
}

std::vector<std::uint64_t>
PairKeySet::sorted() const
{
    std::vector<std::uint64_t> keys;
    keys.reserve(count);
    if (hasFreeKey)
        keys.push_back(kFree);
    for (auto key : slots) {
        if (key != kFree)
            keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

DeviceRecord::DeviceRecord(std::uint64_t device_id,
                           core::ErrorMap physical_map,
                           std::vector<core::VddMv> challenge_levels,
                           std::vector<core::VddMv> reserved_levels)
    : id(device_id),
      map(std::move(physical_map)),
      authLevels(std::move(challenge_levels)),
      remapLevels(std::move(reserved_levels))
{
    // A level must not serve both roles: remap responses are secret.
    for (auto level : authLevels) {
        if (std::find(remapLevels.begin(), remapLevels.end(), level) !=
            remapLevels.end()) {
            throw std::invalid_argument(
                "DeviceRecord: level both challenge and reserved");
        }
    }
}

const core::LogicalRemap &
DeviceRecord::logicalRemap() const
{
    if (!remapCache)
        remapCache = std::make_shared<core::LogicalRemap>(
            key, map.geometry());
    return *remapCache;
}

const core::ErrorMap &
DeviceRecord::logicalMap() const
{
    const core::LogicalRemap &remap = logicalRemap();
    if (remap.isIdentity())
        return map;
    if (!logicalCache)
        logicalCache = std::make_shared<core::ErrorMap>(
            remap.mapErrorMap(map));
    return *logicalCache;
}

const core::ErrorIndexMap &
DeviceRecord::logicalIndexes() const
{
    if (!indexCache)
        indexCache = std::make_shared<core::ErrorIndexMap>(
            core::buildErrorIndexes(logicalMap()));
    return *indexCache;
}

std::uint64_t
DeviceRecord::pairKey(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t lo = std::min(a, b);
    std::uint64_t hi = std::max(a, b);
    // Exact encoding: line indices are < 2^32 for any realistic cache.
    return (lo << 32) | hi;
}

bool
DeviceRecord::consumePair(core::VddMv level, std::uint64_t line_a,
                          std::uint64_t line_b)
{
    return consumed[level].insert(pairKey(line_a, line_b));
}

bool
DeviceRecord::pairAvailable(core::VddMv level, std::uint64_t line_a,
                            std::uint64_t line_b) const
{
    auto it = consumed.find(level);
    if (it == consumed.end())
        return true;
    return !it->second.contains(pairKey(line_a, line_b));
}

bool
DeviceRecord::consumeMixedPair(core::VddMv level_a,
                               std::uint64_t line_a,
                               core::VddMv level_b,
                               std::uint64_t line_b)
{
    if (level_a == level_b)
        return consumePair(level_a, line_a, line_b);
    std::array<std::uint64_t, 4> key_a{level_a, line_a, level_b,
                                       line_b};
    std::array<std::uint64_t, 4> key_b{level_b, line_b, level_a,
                                       line_a};
    const auto &canonical = key_a < key_b ? key_a : key_b;
    return mixed.insert(canonical).second;
}

std::size_t
DeviceRecord::consumedCount(core::VddMv level) const
{
    auto it = consumed.find(level);
    return it == consumed.end() ? 0 : it->second.size();
}

std::uint64_t
DeviceRecord::remainingPairs(core::VddMv level) const
{
    return core::possibleCrps(map.geometry().lines()) -
           consumedCount(level);
}

DeviceRecord &
EnrollmentDatabase::enroll(DeviceRecord record)
{
    std::uint64_t id = record.deviceId();
    auto [it, inserted] = records.emplace(id, std::move(record));
    if (!inserted)
        throw std::invalid_argument(
            "EnrollmentDatabase: device already enrolled");
    return it->second;
}

bool
EnrollmentDatabase::contains(std::uint64_t device_id) const
{
    return records.count(device_id) > 0;
}

DeviceRecord &
EnrollmentDatabase::at(std::uint64_t device_id)
{
    auto it = records.find(device_id);
    if (it == records.end())
        throw std::out_of_range("EnrollmentDatabase: unknown device");
    return it->second;
}

const DeviceRecord &
EnrollmentDatabase::at(std::uint64_t device_id) const
{
    auto it = records.find(device_id);
    if (it == records.end())
        throw std::out_of_range("EnrollmentDatabase: unknown device");
    return it->second;
}

} // namespace authenticache::server
