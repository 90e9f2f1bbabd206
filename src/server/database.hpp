/**
 * @file
 * Server-side enrollment database (paper Sec 2.1, 4.2).
 *
 * The Authenticache server does not store CRPs: it stores each
 * client's *error maps* (a compact representation) and generates
 * challenges on demand. It additionally tracks consumed challenge
 * pairs -- both orderings of a pair retire together (Sec 4.4) -- and
 * the device's current logical-map key.
 */

#ifndef AUTH_SERVER_DATABASE_HPP
#define AUTH_SERVER_DATABASE_HPP

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/error_index.hpp"
#include "core/error_map.hpp"
#include "core/remap.hpp"
#include "crypto/key.hpp"

namespace authenticache::server {

/**
 * The consumed-pair ledger of one voltage level: a set of 64-bit pair
 * keys in one flat open-addressing table (linear probing,
 * power-of-two capacity, at most 3/4 full). Recording a pair costs no
 * allocation beyond the table's occasional doubling, and a key takes
 * 11-21 bytes instead of a ~40-byte hash node. Slot order depends on
 * the capacity and insertion history; sorted() is the canonical
 * order.
 */
class PairKeySet
{
  public:
    /** @return false when @p key was already present. */
    bool insert(std::uint64_t key);
    bool contains(std::uint64_t key) const;
    std::size_t size() const { return count; }

    /** Size the table so @p n keys fit without a rehash. */
    void reserve(std::size_t n);

    /** Every key, ascending. */
    std::vector<std::uint64_t> sorted() const;

  private:
    // Key 0 marks a free slot, so the key 0 itself lives in a flag.
    static constexpr std::uint64_t kFree = 0;

    std::size_t slotOf(std::uint64_t key) const;
    void rehash(std::size_t capacity);

    std::vector<std::uint64_t> slots;
    std::size_t count = 0;
    bool hasFreeKey = false;
};

/** Everything the server knows about one enrolled device. */
class DeviceRecord
{
  public:
    DeviceRecord(std::uint64_t device_id, core::ErrorMap physical_map,
                 std::vector<core::VddMv> challenge_levels,
                 std::vector<core::VddMv> reserved_levels);

    std::uint64_t deviceId() const { return id; }
    const core::ErrorMap &physicalMap() const { return map; }

    /** Voltage levels usable for ordinary authentication. */
    const std::vector<core::VddMv> &challengeLevels() const
    {
        return authLevels;
    }

    /** Voltage levels reserved for remap key derivation (Sec 4.5). */
    const std::vector<core::VddMv> &reservedLevels() const
    {
        return remapLevels;
    }

    const crypto::Key256 &mapKey() const { return key; }

    /** Rotate the map key; drops the cached logical views. */
    void setMapKey(const crypto::Key256 &k)
    {
        if (!(k == key)) {
            remapCache.reset();
            logicalCache.reset();
            indexCache.reset();
        }
        key = k;
    }

    /**
     * The coordinate permutation under the current map key, built on
     * first use and cached until setMapKey(). Like the rest of the
     * record's mutable state, callers synchronize externally (the
     * session layer holds the device's shard mutex).
     */
    const core::LogicalRemap &logicalRemap() const;

    /**
     * The device's error map in logical coordinates under the current
     * map key -- the view challenges are evaluated against. Computed
     * on first use and cached until the key rotates, which removes
     * the full-map permutation from the per-challenge hot path. The
     * identity key returns physicalMap() itself. The physical map is
     * immutable after enrollment, so key rotation is the only
     * invalidation point.
     */
    const core::ErrorMap &logicalMap() const;

    /**
     * Per-plane nearest-error indexes over logicalMap(), cached the
     * same way; the generator's batched expected-response evaluation
     * (core::evaluateIndexed) runs against these.
     */
    const core::ErrorIndexMap &logicalIndexes() const;

    /**
     * Consume a challenge pair at a level. Pairs are canonicalized
     * (unordered), so C(A,B) and C(B,A) retire together.
     * @return false when the pair was already consumed.
     */
    bool consumePair(core::VddMv level, std::uint64_t line_a,
                     std::uint64_t line_b);

    /** True when the pair is still fresh. */
    bool pairAvailable(core::VddMv level, std::uint64_t line_a,
                       std::uint64_t line_b) const;

    /**
     * Consume a mixed-voltage pair {(level_a, line_a), (level_b,
     * line_b)}; canonicalized so both orderings retire together.
     * Same-level pairs share the single-level consumed set.
     * @return false when already consumed.
     */
    bool consumeMixedPair(core::VddMv level_a, std::uint64_t line_a,
                          core::VddMv level_b, std::uint64_t line_b);

    /** Consumed pairs at a level (storage grows with usage only). */
    std::size_t consumedCount(core::VddMv level) const;

    /** Consumed mixed-voltage pairs. */
    std::size_t consumedMixedCount() const { return mixed.size(); }

    /** Pairs remaining at a level given the cache's line count. */
    std::uint64_t remainingPairs(core::VddMv level) const;

    // Authentication outcome counters.
    void recordAccept()
    {
        ++nAccepted;
        consecutiveFails = 0;
    }
    void recordReject()
    {
        ++nRejected;
        ++consecutiveFails;
    }
    std::uint64_t accepted() const { return nAccepted; }
    std::uint64_t rejected() const { return nRejected; }

    /** Rejections since the last acceptance (lockout input). */
    std::uint64_t consecutiveFailures() const
    {
        return consecutiveFails;
    }

    // Lockout state (set by the server's policy, cleared by an
    // administrator action). unlock() is the single admin escape
    // hatch: it also clears revocation and restores heartbeat trust,
    // so one command recovers a device from any degradation tier.
    bool locked() const { return isLocked; }
    void lock() { isLocked = true; }
    void unlock(std::uint32_t restored_trust = 100)
    {
        isLocked = false;
        consecutiveFails = 0;
        isRevoked = false;
        reenrollNeeded = false;
        trust = restored_trust;
    }

    // Continuous-authentication trust ledger (TrustPolicy).
    std::uint32_t trustScore() const { return trust; }
    void setTrustScore(std::uint32_t t) { trust = t; }
    std::uint32_t remapBudgetUsed() const { return remapsUsed; }
    void setRemapBudgetUsed(std::uint32_t n) { remapsUsed = n; }
    bool revoked() const { return isRevoked; }
    void revoke() { isRevoked = true; }
    bool reenrollRequired() const { return reenrollNeeded; }
    void setReenrollRequired(bool v) { reenrollNeeded = v; }

  private:
    static std::uint64_t pairKey(std::uint64_t a, std::uint64_t b);

    // Persistence (server/storage.cpp) snapshots/restores the
    // consumed-pair state, which has no other public surface; journal
    // replay (server/journal.cpp) restores absolute counter
    // checkpoints the same way.
    friend struct RecordStorageAccess;
    friend struct JournalApplyAccess;

    std::uint64_t id;
    core::ErrorMap map;
    std::vector<core::VddMv> authLevels;
    std::vector<core::VddMv> remapLevels;
    crypto::Key256 key;
    // Cached views under `key`; shared_ptr keeps the record copyable
    // (copies share the immutable cache until either side rotates,
    // which swaps the pointer rather than mutating through it).
    mutable std::shared_ptr<core::LogicalRemap> remapCache;
    mutable std::shared_ptr<core::ErrorMap> logicalCache;
    mutable std::shared_ptr<core::ErrorIndexMap> indexCache;
    std::map<core::VddMv, PairKeySet> consumed;
    std::set<std::array<std::uint64_t, 4>> mixed;
    std::uint64_t nAccepted = 0;
    std::uint64_t nRejected = 0;
    std::uint64_t consecutiveFails = 0;
    bool isLocked = false;
    // Trust ledger (heartbeat sessions). The default matches
    // TrustPolicy::max so records predating the ledger replay as
    // fully trusted.
    std::uint32_t trust = 100;
    std::uint32_t remapsUsed = 0;
    bool isRevoked = false;
    bool reenrollNeeded = false;
};

/** The database: device id -> record. */
class EnrollmentDatabase
{
  public:
    /** Add a record; throws if the id is already enrolled. */
    DeviceRecord &enroll(DeviceRecord record);

    bool contains(std::uint64_t device_id) const;

    DeviceRecord &at(std::uint64_t device_id);
    const DeviceRecord &at(std::uint64_t device_id) const;

    std::size_t size() const { return records.size(); }

    /** Remove a record (re-enrollment); @return false if absent. */
    bool remove(std::uint64_t device_id)
    {
        return records.erase(device_id) > 0;
    }

    /** Read-only iteration over all records (reporting/persistence). */
    const std::unordered_map<std::uint64_t, DeviceRecord> &
    all() const
    {
        return records;
    }

  private:
    std::unordered_map<std::uint64_t, DeviceRecord> records;
};

} // namespace authenticache::server

#endif // AUTH_SERVER_DATABASE_HPP
