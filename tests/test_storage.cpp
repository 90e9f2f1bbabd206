/**
 * @file
 * Tests for enrollment-database persistence: error-map and record
 * round trips, whole-database snapshots (including consumed-pair
 * state, so no-reuse survives a server restart), corruption
 * detection, and file I/O.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "mc/mapgen.hpp"
#include "server/storage.hpp"
#include "test_tmpdir.hpp"
#include "util/crc32.hpp"

namespace srv = authenticache::server;
namespace core = authenticache::core;
namespace sim = authenticache::sim;
namespace proto = authenticache::protocol;
namespace crypto = authenticache::crypto;
using authenticache::util::Rng;

namespace {

const sim::CacheGeometry kGeom(256 * 1024);

core::ErrorMap
sampleMap(std::uint64_t seed)
{
    Rng rng(seed);
    auto map = authenticache::mc::randomErrorMap(kGeom, 700, 30, rng);
    auto more = authenticache::mc::randomErrorMap(kGeom, 690, 20, rng);
    for (const auto &e : more.plane(690).errors())
        map.plane(690).add(e);
    return map;
}

srv::DeviceRecord
sampleRecord(std::uint64_t id, std::uint64_t seed)
{
    srv::DeviceRecord record(id, sampleMap(seed), {700}, {690});
    record.setMapKey(crypto::Key256::fromDigest(crypto::Sha256::hash(
        std::string("key") + std::to_string(seed))));
    record.consumePair(700, 3, 99);
    record.consumePair(700, 8, 12);
    record.consumeMixedPair(700, 5, 690, 7);
    record.recordAccept();
    record.recordAccept();
    record.recordReject();
    return record;
}

} // namespace

TEST(Storage, ErrorMapRoundTrip)
{
    auto map = sampleMap(1);
    proto::ByteWriter w;
    srv::encodeErrorMap(w, map);
    proto::ByteReader r(w.bytes());
    auto decoded = srv::decodeErrorMap(r);
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(decoded, map);
}

TEST(Storage, ErrorMapRejectsBadGeometry)
{
    proto::ByteWriter w;
    w.putU64(12345); // Not a valid cache size.
    w.putU32(64);
    w.putU32(8);
    w.putU32(0);
    proto::ByteReader r(w.bytes());
    EXPECT_THROW(srv::decodeErrorMap(r), proto::DecodeError);
}

TEST(Storage, ErrorMapRejectsOutOfRangeError)
{
    proto::ByteWriter w;
    w.putU64(kGeom.sizeBytes());
    w.putU32(kGeom.lineBytes());
    w.putU32(kGeom.ways());
    w.putU32(1);           // One plane.
    w.putU32(700);         // Level.
    w.putU64(1);           // One error...
    w.putU32(kGeom.sets()); // ...at an invalid set.
    w.putU32(0);
    proto::ByteReader r(w.bytes());
    EXPECT_THROW(srv::decodeErrorMap(r), proto::DecodeError);
}

TEST(Storage, DeviceRecordRoundTrip)
{
    auto record = sampleRecord(42, 7);
    proto::ByteWriter w;
    srv::encodeDeviceRecord(w, record);
    proto::ByteReader r(w.bytes());
    auto decoded = srv::decodeDeviceRecord(r);
    EXPECT_TRUE(r.exhausted());

    EXPECT_EQ(decoded.deviceId(), 42u);
    EXPECT_EQ(decoded.physicalMap(), record.physicalMap());
    EXPECT_EQ(decoded.mapKey(), record.mapKey());
    EXPECT_EQ(decoded.challengeLevels(), record.challengeLevels());
    EXPECT_EQ(decoded.reservedLevels(), record.reservedLevels());
    EXPECT_EQ(decoded.accepted(), 2u);
    EXPECT_EQ(decoded.rejected(), 1u);

    // Consumed-pair state survives: the same pairs are still retired.
    EXPECT_FALSE(decoded.pairAvailable(700, 3, 99));
    EXPECT_FALSE(decoded.pairAvailable(700, 99, 3));
    EXPECT_FALSE(decoded.pairAvailable(700, 12, 8));
    EXPECT_TRUE(decoded.pairAvailable(700, 1, 2));
    EXPECT_FALSE(decoded.consumeMixedPair(690, 7, 700, 5));
    EXPECT_EQ(decoded.consumedCount(700), 2u);
    EXPECT_EQ(decoded.consumedMixedCount(), 1u);
}

TEST(Storage, DatabaseSnapshotRoundTrip)
{
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(1, 10));
    db.enroll(sampleRecord(2, 20));
    db.enroll(sampleRecord(3, 30));

    auto blob = srv::saveDatabase(db);
    auto restored = srv::loadDatabase(blob);
    EXPECT_EQ(restored.size(), 3u);
    for (std::uint64_t id : {1, 2, 3}) {
        EXPECT_TRUE(restored.contains(id));
        EXPECT_EQ(restored.at(id).physicalMap(),
                  db.at(id).physicalMap());
        EXPECT_EQ(restored.at(id).mapKey(), db.at(id).mapKey());
    }
}

TEST(Storage, EmptyDatabaseRoundTrip)
{
    srv::EnrollmentDatabase db;
    auto restored = srv::loadDatabase(srv::saveDatabase(db));
    EXPECT_EQ(restored.size(), 0u);
}

TEST(Storage, SnapshotCorruptionDetected)
{
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(1, 10));
    auto blob = srv::saveDatabase(db);

    auto corrupted = blob;
    corrupted[corrupted.size() / 2] ^= 0x5A;
    EXPECT_THROW(srv::loadDatabase(corrupted), proto::DecodeError);

    auto truncated = blob;
    truncated.resize(truncated.size() - 8);
    EXPECT_THROW(srv::loadDatabase(truncated), proto::DecodeError);

    std::vector<std::uint8_t> tiny{1, 2};
    EXPECT_THROW(srv::loadDatabase(tiny), proto::DecodeError);
}

TEST(Storage, BadMagicAndVersionRejected)
{
    srv::EnrollmentDatabase db;
    auto blob = srv::saveDatabase(db);
    // Flip a magic byte and fix the CRC by recomputing a fresh frame:
    // easier to hand-build the bad frame.
    proto::ByteWriter w;
    w.putU32(0xDEADBEEF);
    w.putU16(1);
    w.putU32(0);
    std::uint32_t crc = authenticache::util::crc32(w.bytes());
    w.putU32(crc);
    EXPECT_THROW(srv::loadDatabase(w.bytes()), proto::DecodeError);
}

TEST(Storage, FileRoundTrip)
{
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(7, 70));

    authenticache::testutil::TempDir dir("auth_storage_rt");
    std::string path = dir.str() + "/db.bin";
    srv::saveDatabaseFile(db, path);
    auto restored = srv::loadDatabaseFile(path);
    EXPECT_TRUE(restored.contains(7));
    EXPECT_EQ(restored.at(7).physicalMap(), db.at(7).physicalMap());

    EXPECT_THROW(srv::loadDatabaseFile("/nonexistent/nope.bin"),
                 std::runtime_error);
}

TEST(Storage, V1MigrationRoundTrip)
{
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(1, 10));
    db.enroll(sampleRecord(2, 20));

    // A v1 snapshot (no durability metadata) still loads, reporting
    // zero metadata...
    auto v1 = srv::saveDatabaseV1(db);
    srv::SnapshotMeta meta{99, 99};
    auto migrated = srv::loadDatabase(v1, &meta);
    EXPECT_EQ(meta.generation, 0u);
    EXPECT_EQ(meta.journalWatermark, 0u);
    EXPECT_EQ(migrated.size(), 2u);

    // ...and re-saving produces a v2 snapshot that round-trips with
    // the metadata intact and identical record state.
    auto v2 = srv::saveDatabase(migrated, srv::SnapshotMeta{3, 77});
    ASSERT_NE(v1, v2);
    srv::SnapshotMeta meta2;
    auto restored = srv::loadDatabase(v2, &meta2);
    EXPECT_EQ(meta2.generation, 3u);
    EXPECT_EQ(meta2.journalWatermark, 77u);
    EXPECT_EQ(srv::saveDatabase(restored), srv::saveDatabase(db));
}

TEST(Storage, UnknownVersionRejected)
{
    proto::ByteWriter w;
    w.putU32(0x42444341); // "ACDB".
    w.putU16(3);          // One past the current version.
    w.putU32(0);
    std::uint32_t crc = authenticache::util::crc32(w.bytes());
    w.putU32(crc);
    EXPECT_THROW(srv::loadDatabase(w.bytes()), proto::DecodeError);
}

TEST(Storage, CanonicalSnapshotBytes)
{
    // Equal logical states must serialize identically even when the
    // consumed sets were populated in different orders (they are
    // unordered in memory; recovery compares states by snapshot
    // bytes).
    srv::DeviceRecord a(1, sampleMap(5), {700}, {690});
    srv::DeviceRecord b(1, sampleMap(5), {700}, {690});
    for (std::uint64_t k = 0; k < 40; ++k)
        a.consumePair(700, k, k + 100);
    for (std::uint64_t k = 40; k-- > 0;)
        b.consumePair(700, k + 100, k);

    srv::EnrollmentDatabase da, dbb;
    da.enroll(std::move(a));
    dbb.enroll(std::move(b));
    EXPECT_EQ(srv::saveDatabase(da), srv::saveDatabase(dbb));
}

TEST(Storage, AtomicSaveSurvivesCrashMidWrite)
{
    srv::EnrollmentDatabase old_db;
    old_db.enroll(sampleRecord(1, 10));
    srv::EnrollmentDatabase new_db;
    new_db.enroll(sampleRecord(1, 10));
    new_db.enroll(sampleRecord(2, 20));

    authenticache::testutil::TempDir dir("auth_storage_atomic");
    std::string path = dir.str() + "/db.bin";
    srv::saveDatabaseFile(old_db, path);
    auto old_bytes = srv::saveDatabase(old_db);

    // Kill the writer at every coarse crash opportunity: the live
    // snapshot must stay byte-identical to the old one until the
    // rename, and be the complete new one after it.
    srv::CrashInjector inj;
    inj.disarm();
    srv::saveDatabaseFile(new_db, path, {}, &inj);
    std::uint64_t total = inj.opportunities();
    ASSERT_GT(total, 3u);

    for (std::uint64_t t = 0; t < total; ++t) {
        srv::saveDatabaseFile(old_db, path);
        inj.arm(t);
        bool crashed = false;
        try {
            srv::saveDatabaseFile(new_db, path, {}, &inj);
        } catch (const srv::CrashException &) {
            crashed = true;
        }
        ASSERT_TRUE(crashed) << "opportunity " << t;
        auto loaded = srv::saveDatabase(srv::loadDatabaseFile(path));
        EXPECT_TRUE(loaded == old_bytes ||
                    loaded == srv::saveDatabase(new_db))
            << "torn snapshot at opportunity " << t;
    }
}
