/**
 * @file
 * Concurrent-vs-sequential equivalence for the batch front end.
 *
 * The server's contract is that handleBatch produces bit-identical
 * outcomes at any thread count, and that a one-frame batch is the
 * same machine. A 64-device mixed flood (honest auths, corrupted
 * responses, duplicate requests/responses/acks, garbage frames,
 * unknown devices and nonces, remap exchanges with tampered
 * confirmations, lockouts) enforces it: its complete observable state
 * -- per-device record state, server counters, the report log, and
 * every reply byte -- must be identical whether driven one frame per
 * batch, through whole-round batches on one thread, or on eight. (The
 * fault sweep's golden, tests/golden/fault_sweep.txt, pins the same
 * contract for the faulted exchange at several pool widths.)
 *
 * Smaller suites cover the per-shard stats surface and the
 * per-component log-level overrides.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/remap.hpp"
#include "crypto/fuzzy_extractor.hpp"
#include "mc/mapgen.hpp"
#include "server/server.hpp"
#include "util/logging.hpp"

namespace core = authenticache::core;
namespace mc = authenticache::mc;
namespace proto = authenticache::protocol;
namespace srv = authenticache::server;
namespace crypto = authenticache::crypto;
namespace util = authenticache::util;

namespace {

// ---------------------------------------------------------------- //
// Mixed-flood scenario                                             //
// ---------------------------------------------------------------- //

constexpr std::size_t kDevices = 64;
constexpr std::uint64_t kFirstId = 101;
constexpr core::VddMv kLevel = 700.0;
constexpr core::VddMv kReservedLvl = 705.0;
constexpr std::uint64_t kServerSeed = 0xBA7C4;
constexpr std::size_t kMapErrors = 40;

// Behaviour classes, by device id. A device can fall into several;
// precedence is resolved where the frames are built.
bool wantsRemap(std::uint64_t id) { return id % 4 == 0; }
bool liesOnResponse(std::uint64_t id) { return id % 7 == 3; }
bool skipsResponse(std::uint64_t id) { return id % 11 == 5; }
bool duplicatesRequest(std::uint64_t id) { return id % 9 == 4; }
bool duplicatesResponse(std::uint64_t id) { return id % 13 == 2; }
bool tampersAck(std::uint64_t id) { return id % 8 == 0; }
bool duplicatesAck(std::uint64_t id) { return id % 12 == 4; }

/** One server-bound frame, addressed by reply slot. */
struct TestFrame
{
    std::size_t slot;
    std::vector<std::uint8_t> bytes;
};

/**
 * The flood fixture: one server, one reply sink per device so reply
 * transcripts stay separated, plus a stray slot for frames that
 * belong to no enrolled device.
 */
struct Harness
{
    srv::ServerConfig cfg;
    srv::AuthenticationServer server;
    std::vector<std::uint64_t> ids;
    std::vector<std::unique_ptr<proto::EncodingSink>> ends;
    std::vector<std::string> transcript;
    std::vector<std::optional<proto::ChallengeMsg>> lastChallenge;
    std::vector<std::optional<proto::RemapRequest>> lastRemap;
    std::size_t stray = 0;

    Harness(const srv::ServerConfig &config, std::size_t n_devices)
        : cfg(config), server(cfg, kServerSeed)
    {
        core::CacheGeometry geom(64 * 1024);
        for (std::size_t i = 0; i < n_devices; ++i) {
            std::uint64_t id = kFirstId + i;
            // Per-device map stream: the fixture is reproducible
            // regardless of enrollment order or device count.
            util::Rng mr = util::Rng::forStream(0xD1CE, id);
            core::ErrorMap map =
                mc::randomErrorMap(geom, kLevel, kMapErrors, mr);
            std::vector<core::VddMv> reserved;
            if (wantsRemap(id)) {
                auto &plane = map.plane(kReservedLvl);
                while (plane.errorCount() < kMapErrors)
                    plane.add(geom.pointOf(mr.nextBelow(geom.lines())));
                reserved.push_back(kReservedLvl);
            }
            server.database().enroll(srv::DeviceRecord(
                id, std::move(map), {kLevel}, std::move(reserved)));
            ids.push_back(id);
        }
        stray = ids.size();
        for (std::size_t s = 0; s <= ids.size(); ++s)
            ends.push_back(std::make_unique<proto::EncodingSink>());
        transcript.resize(ends.size());
        lastChallenge.resize(ids.size());
        lastRemap.resize(ids.size());
    }
};

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (auto b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xF]);
    }
    return out;
}

/** Pull every client-bound reply; record bytes, track challenges. */
void
drainReplies(Harness &h)
{
    for (std::size_t s = 0; s < h.ends.size(); ++s) {
        for (const auto &frame : std::exchange(h.ends[s]->frames, {})) {
            h.transcript[s] += hex(frame);
            h.transcript[s] += '\n';
            auto msg = proto::decodeMessage(frame);
            if (s >= h.ids.size())
                continue;
            if (auto *c = std::get_if<proto::ChallengeMsg>(&msg))
                h.lastChallenge[s] = *c;
            else if (auto *r = std::get_if<proto::RemapRequest>(&msg))
                h.lastRemap[s] = *r;
        }
    }
}

/** The response an honest, noiseless device would return. */
util::BitVec
honestResponse(const srv::DeviceRecord &rec, const core::Challenge &ch)
{
    core::LogicalRemap remap(rec.mapKey(),
                             rec.physicalMap().geometry());
    return core::evaluate(remap.mapErrorMap(rec.physicalMap()), ch);
}

/**
 * The ack an honest device derives from a RemapRequest: reproduce the
 * server's key from the reserved-level response plus the helper data,
 * and prove it with the confirmation MAC.
 */
proto::RemapAck
craftAck(const srv::DeviceRecord &rec, const proto::RemapRequest &rr,
         bool tamper)
{
    core::LogicalRemap identity(crypto::Key256::zero(),
                                rec.physicalMap().geometry());
    auto response =
        core::evaluate(identity.mapErrorMap(rec.physicalMap()),
                       rr.challenge);
    crypto::FuzzyExtractor extractor(rr.repetition);
    auto key = extractor.reproduce(response, rr.helper);

    proto::RemapAck ack;
    ack.nonce = rr.nonce;
    ack.success = true;
    ack.confirmation = crypto::keyConfirmation(key, rr.nonce);
    if (tamper)
        ack.confirmation[0] ^= 0xFF;
    return ack;
}

/** A driver delivers one round of frames to the server. */
using Driver =
    std::function<void(Harness &, const std::vector<TestFrame> &)>;

/** Per-message baseline: one single-frame batch per frame. */
void
driveSequential(Harness &h, const std::vector<TestFrame> &frames)
{
    util::ThreadPool pool(1);
    for (const auto &f : frames) {
        srv::Frame frame{f.bytes, h.ends[f.slot].get()};
        h.server.handleBatch(std::span<srv::Frame>(&frame, 1), pool);
    }
}

/** Batch driver at a fixed pool width. */
Driver
batchDriver(std::shared_ptr<util::ThreadPool> pool)
{
    return [pool](Harness &h, const std::vector<TestFrame> &frames) {
        std::vector<srv::Frame> batch;
        batch.reserve(frames.size());
        for (const auto &f : frames)
            batch.push_back(srv::Frame{f.bytes, h.ends[f.slot].get()});
        h.server.handleBatch(batch, *pool);
    };
}

std::vector<std::uint8_t>
garbageFrame()
{
    return {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
}

srv::ServerConfig
floodConfig(unsigned shards)
{
    srv::ServerConfig cfg;
    cfg.challengeBits = 32;
    cfg.remapSecretBits = 8;
    cfg.fuzzyRepetition = 5;
    cfg.verifier.pIntra = 0.08;
    cfg.lockoutThreshold = 2;
    cfg.completedCacheSize = 64;
    cfg.sessionShards = shards;
    return cfg;
}

/**
 * Everything an observer can see after the flood: per-device record
 * state (including the rotated map keys), aggregate counters, the
 * completed-auth report log, and every reply byte each endpoint
 * received, in order.
 */
std::string
fingerprint(const Harness &h, bool include_wire = true)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < h.ids.size(); ++i) {
        const auto &rec = h.server.database().at(h.ids[i]);
        os << "dev " << h.ids[i] << ": acc=" << rec.accepted()
           << " rej=" << rec.rejected()
           << " locked=" << rec.locked()
           << " authPairs=" << rec.consumedCount(kLevel)
           << " reservedPairs=" << rec.consumedCount(kReservedLvl)
           << " key=";
        for (auto b : rec.mapKey().bytes)
            os << std::hex << int(b) << std::dec;
        os << "\n";
    }
    os << "pending=" << h.server.pendingSessions()
       << " evicted=" << h.server.sessionsEvicted()
       << " expired=" << h.server.sessionsExpired()
       << " dupReq=" << h.server.duplicateRequests()
       << " dupDone=" << h.server.duplicateCompletions()
       << " remapsOk=" << h.server.remapsCommitted()
       << " remapsBad=" << h.server.remapsRejected()
       << " lockouts=" << h.server.lockouts() << "\n";
    for (const auto &r : h.server.reports()) {
        os << "report dev=" << r.deviceId;
        // Nonces tag the owning shard in their low bits, so they (and
        // the raw reply bytes that carry them) are only comparable
        // between servers with the same shard count.
        if (include_wire)
            os << " nonce=" << r.nonce;
        os << " acc=" << r.accepted << " hd=" << r.hammingDistance
           << " thr=" << r.threshold << "\n";
    }
    if (include_wire)
        for (std::size_t s = 0; s < h.transcript.size(); ++s)
            os << "slot " << s << ":\n" << h.transcript[s];
    return os.str();
}

/**
 * Run the whole mixed flood under one driver and return the
 * fingerprint. Six rounds: requests (+noise), responses (+lies,
 * duplicates, silence), remap acks (+tampering), a second
 * request/response pass that locks the repeat liars, and a final
 * request round probing the locked devices.
 */
std::string
runFlood(const Driver &drive, unsigned shards,
         bool include_wire = true)
{
    Harness h(floodConfig(shards), kDevices);
    auto frameFor = [&](std::size_t slot, const proto::Message &m) {
        return TestFrame{slot, proto::encodeMessage(m)};
    };

    // Round 1: everyone requests; the stray slot injects garbage, an
    // unknown device, an unknown nonce, an out-of-phase message, and
    // a client-side ErrorMsg (consumed without a reply).
    std::vector<TestFrame> round;
    for (std::size_t i = 0; i < h.ids.size(); ++i)
        round.push_back(
            frameFor(i, proto::AuthRequest{h.ids[i]}));
    round.push_back(frameFor(h.stray, proto::AuthRequest{9999}));
    round.push_back(TestFrame{h.stray, garbageFrame()});
    round.push_back(frameFor(
        h.stray, proto::ResponseMsg{0xABCDEF12, util::BitVec()}));
    round.push_back(frameFor(h.stray, proto::AuthDecision{}));
    round.push_back(frameFor(h.stray, proto::ErrorMsg{"client woe"}));
    drive(h, round);
    drainReplies(h);

    // Round 2: duplicate requests land first (their sessions are
    // still open), then responses -- honest, corrupted, duplicated,
    // or withheld (a garbage frame in place of the answer).
    round.clear();
    for (std::size_t i = 0; i < h.ids.size(); ++i)
        if (duplicatesRequest(h.ids[i]))
            round.push_back(
                frameFor(i, proto::AuthRequest{h.ids[i]}));
    for (std::size_t i = 0; i < h.ids.size(); ++i) {
        std::uint64_t id = h.ids[i];
        if (skipsResponse(id)) {
            round.push_back(TestFrame{i, garbageFrame()});
            continue;
        }
        const auto &ch = *h.lastChallenge[i];
        auto resp =
            honestResponse(h.server.database().at(id), ch.challenge);
        if (liesOnResponse(id))
            for (std::size_t b = 0; b < 16 && b < resp.size(); ++b)
                resp.flip(b);
        auto frame =
            frameFor(i, proto::ResponseMsg{ch.nonce, resp});
        round.push_back(frame);
        if (duplicatesResponse(id))
            round.push_back(frame);
    }
    drive(h, round);
    drainReplies(h);

    // Round 3: the server initiates remaps; clients ack honestly,
    // with a tampered confirmation, or twice.
    for (std::size_t i = 0; i < h.ids.size(); ++i)
        if (wantsRemap(h.ids[i]))
            h.server.startRemap(h.ids[i], *h.ends[i]);
    drainReplies(h);
    round.clear();
    for (std::size_t i = 0; i < h.ids.size(); ++i) {
        std::uint64_t id = h.ids[i];
        if (!wantsRemap(id) || !h.lastRemap[i])
            continue;
        auto ack = craftAck(h.server.database().at(id),
                            *h.lastRemap[i], tampersAck(id));
        auto frame = frameFor(i, ack);
        round.push_back(frame);
        if (duplicatesAck(id))
            round.push_back(frame);
    }
    drive(h, round);
    drainReplies(h);

    // Round 4: a second request wave. Devices that withheld their
    // round-2 answer still hold an open session, so this is a dedup
    // re-issue for them and a fresh challenge for everyone else.
    round.clear();
    for (std::size_t i = 0; i < h.ids.size(); ++i)
        round.push_back(
            frameFor(i, proto::AuthRequest{h.ids[i]}));
    drive(h, round);
    drainReplies(h);

    // Round 5: second response wave. Repeat liars hit the lockout
    // threshold here; everyone else authenticates (under the rotated
    // key where a remap committed).
    round.clear();
    for (std::size_t i = 0; i < h.ids.size(); ++i) {
        std::uint64_t id = h.ids[i];
        const auto &ch = *h.lastChallenge[i];
        auto resp =
            honestResponse(h.server.database().at(id), ch.challenge);
        if (liesOnResponse(id))
            for (std::size_t b = 0; b < 16 && b < resp.size(); ++b)
                resp.flip(b);
        round.push_back(
            frameFor(i, proto::ResponseMsg{ch.nonce, resp}));
    }
    round.push_back(frameFor(
        h.stray, proto::ResponseMsg{0x13572468, util::BitVec()}));
    drive(h, round);
    drainReplies(h);

    // Round 6: probe every device again; locked ones get rejected at
    // the request stage.
    round.clear();
    for (std::size_t i = 0; i < h.ids.size(); ++i)
        round.push_back(
            frameFor(i, proto::AuthRequest{h.ids[i]}));
    drive(h, round);
    drainReplies(h);

    return fingerprint(h, include_wire);
}

} // namespace

// ---------------------------------------------------------------- //
// Tests                                                            //
// ---------------------------------------------------------------- //

TEST(BatchEquivalence, MixedFloodIdenticalAcrossDrivers)
{
    std::string sequential = runFlood(driveSequential, 8);
    std::string batch1 =
        runFlood(batchDriver(std::make_shared<util::ThreadPool>(1)), 8);
    std::string batch8 =
        runFlood(batchDriver(std::make_shared<util::ThreadPool>(8)), 8);

    EXPECT_EQ(sequential, batch1);
    EXPECT_EQ(sequential, batch8);

    // The scenario must actually exercise the interesting paths;
    // otherwise the equality above proves nothing.
    EXPECT_NE(sequential.find(" locked=1"), std::string::npos);
    EXPECT_NE(sequential.find("remapsOk="), std::string::npos);
    EXPECT_EQ(sequential.find("remapsOk=0 "), std::string::npos);
    EXPECT_EQ(sequential.find(" dupReq=0 "), std::string::npos);
    EXPECT_EQ(sequential.find(" dupDone=0 "), std::string::npos);
    EXPECT_EQ(sequential.find(" remapsBad=0 "), std::string::npos);
    EXPECT_EQ(sequential.find("lockouts=0"), std::string::npos);
}

TEST(BatchEquivalence, ShardCountInvariantToFingerprint)
{
    // Shard layout is an implementation detail: every outcome --
    // per-device record state, rotated keys, counters, reports --
    // must not depend on it. (Raw nonce bytes do, by design: the
    // shard index lives in a nonce's low bits, so the wire transcript
    // is excluded from this comparison.)
    auto pool = std::make_shared<util::ThreadPool>(4);
    std::string oneShard =
        runFlood(batchDriver(pool), 1, /*include_wire=*/false);
    std::string eightShards =
        runFlood(batchDriver(pool), 8, /*include_wire=*/false);
    EXPECT_EQ(oneShard, eightShards);
}

TEST(PerShardStats, CountersSurfaceInRegistry)
{
    Harness h(floodConfig(4), 16);
    util::ThreadPool pool(2);
    auto drive = batchDriver(std::make_shared<util::ThreadPool>(2));

    // One request wave, duplicated wholesale: every device scores a
    // dedup hit on its shard.
    std::vector<TestFrame> round;
    for (std::size_t i = 0; i < h.ids.size(); ++i)
        round.push_back(TestFrame{
            i, proto::encodeMessage(proto::AuthRequest{h.ids[i]})});
    drive(h, round);
    drive(h, round);
    drainReplies(h);

    util::StatsRegistry registry;
    srv::collectServerStats(h.server, registry);

    ASSERT_EQ(registry.getInt("server", "session_shards"),
              std::optional<std::uint64_t>(4));
    std::uint64_t active = 0;
    std::uint64_t dedup = 0;
    for (unsigned k = 0; k < 4; ++k) {
        std::string shard = "server.shard" + std::to_string(k);
        auto a = registry.getInt(shard, "sessions_active");
        auto d = registry.getInt(shard, "dedup_hits");
        ASSERT_TRUE(a.has_value()) << shard;
        ASSERT_TRUE(d.has_value()) << shard;
        ASSERT_TRUE(
            registry.getInt(shard, "replay_cache_hits").has_value());
        ASSERT_TRUE(
            registry.getInt(shard, "gc_evictions").has_value());
        ASSERT_TRUE(
            registry.getInt(shard, "cap_evictions").has_value());
        ASSERT_TRUE(registry.getInt(shard, "lockouts").has_value());
        active += *a;
        dedup += *d;
    }
    EXPECT_EQ(active, h.server.pendingSessions());
    EXPECT_EQ(dedup, h.server.duplicateRequests());
    EXPECT_EQ(dedup, h.ids.size());
}

TEST(PerShardStats, DevicesSpreadAcrossShards)
{
    Harness h(floodConfig(8), kDevices);
    std::vector<bool> used(h.server.sessions().shardCount(), false);
    for (auto id : h.ids) {
        unsigned idx = h.server.sessions().shardIndexForDevice(id);
        ASSERT_LT(idx, used.size());
        used[idx] = true;
    }
    // 64 ids over 8 shards: a routing bug that pins everything to
    // one shard would leave most of these false.
    for (std::size_t k = 0; k < used.size(); ++k)
        EXPECT_TRUE(used[k]) << "shard " << k << " unused";
}

TEST(SessionManagerTest, ShardCountRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(Harness(floodConfig(1), 1)
                  .server.sessions()
                  .shardCount(),
              1u);
    EXPECT_EQ(Harness(floodConfig(3), 1)
                  .server.sessions()
                  .shardCount(),
              4u);
    EXPECT_EQ(Harness(floodConfig(8), 1)
                  .server.sessions()
                  .shardCount(),
              8u);
}

TEST(ComponentLogging, OverridesAndPrefixFallback)
{
    util::clearComponentLogLevels();
    util::setLogLevel(util::LogLevel::Warn);

    EXPECT_FALSE(util::logEnabled(util::LogLevel::Debug, "server"));
    util::setLogLevel("server", util::LogLevel::Debug);
    EXPECT_TRUE(util::logEnabled(util::LogLevel::Debug, "server"));

    // Dotted children inherit the nearest configured prefix.
    EXPECT_TRUE(
        util::logEnabled(util::LogLevel::Debug, "server.sessions"));
    util::setLogLevel("server.sessions", util::LogLevel::Off);
    EXPECT_FALSE(
        util::logEnabled(util::LogLevel::Error, "server.sessions"));
    EXPECT_TRUE(
        util::logEnabled(util::LogLevel::Debug, "server.auth"));

    // Unrelated components still follow the global level.
    EXPECT_FALSE(util::logEnabled(util::LogLevel::Debug, "mc"));
    EXPECT_TRUE(util::logEnabled(util::LogLevel::Warn, "mc"));

    util::clearComponentLogLevels();
    EXPECT_FALSE(util::logEnabled(util::LogLevel::Debug, "server"));
    EXPECT_TRUE(
        util::logEnabled(util::LogLevel::Error, "server.sessions"));
}

TEST(ComponentLogging, QueryReportsEffectiveLevel)
{
    util::clearComponentLogLevels();
    util::setLogLevel(util::LogLevel::Warn);
    EXPECT_EQ(util::logLevel("server"), util::LogLevel::Warn);
    util::setLogLevel("server", util::LogLevel::Info);
    EXPECT_EQ(util::logLevel("server"), util::LogLevel::Info);
    EXPECT_EQ(util::logLevel("server.remap"), util::LogLevel::Info);
    EXPECT_EQ(util::logLevel("firmware"), util::LogLevel::Warn);
    util::clearComponentLogLevels();
}
