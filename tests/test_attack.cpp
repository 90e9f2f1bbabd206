/**
 * @file
 * Tests for the model-building attacker (Fig 16) and the replay
 * attacker plumbing.
 */

#include <gtest/gtest.h>

#include "attack/model_attack.hpp"
#include "attack/replay.hpp"
#include "core/nearest.hpp"
#include "mc/mapgen.hpp"

namespace attack = authenticache::attack;
namespace core = authenticache::core;
namespace sim = authenticache::sim;
using authenticache::util::Rng;

namespace {

const sim::CacheGeometry kGeom(64 * 1024); // 128 sets x 8 ways.

core::ChallengeBit
pair(std::uint32_t sa, std::uint32_t wa, std::uint32_t sb,
     std::uint32_t wb)
{
    core::ChallengeBit bit;
    bit.a = core::ChallengePoint{{sa, wa}, 0};
    bit.b = core::ChallengePoint{{sb, wb}, 0};
    return bit;
}

} // namespace

TEST(Model, StartsUninformed)
{
    attack::DistanceFieldModel model(kGeom);
    EXPECT_EQ(model.observed(), 0u);
    // Flat field: every prediction is "0" (no strict inequality).
    EXPECT_FALSE(model.predict(pair(0, 0, 100, 5)));
}

TEST(Model, LearnsASingleConstraint)
{
    attack::DistanceFieldModel model(kGeom);
    auto bit = pair(10, 2, 90, 5);
    // Observe response 1: d(A) > d(B).
    for (int i = 0; i < 5; ++i)
        model.train(bit, true);
    EXPECT_TRUE(model.predict(bit));
    EXPECT_GT(model.fieldAt({10, 2}), model.fieldAt({90, 5}));
    EXPECT_EQ(model.observed(), 5u);
}

TEST(Model, FieldStaysNonNegative)
{
    attack::DistanceFieldModel model(kGeom);
    auto bit = pair(10, 2, 90, 5);
    for (int i = 0; i < 100; ++i)
        model.train(bit, false); // Push d(A) down relentlessly.
    EXPECT_GE(model.fieldAt({10, 2}), 0.0);
}

TEST(Model, SmoothingInformsNeighbors)
{
    attack::DistanceFieldModel model(kGeom);
    auto bit = pair(50, 3, 120, 3);
    for (int i = 0; i < 10; ++i)
        model.train(bit, true);
    // A set-adjacent neighbor of A (same way) moved with it.
    EXPECT_GT(model.fieldAt({51, 3}), 0.0);
}

TEST(Model, ResetClearsState)
{
    attack::DistanceFieldModel model(kGeom);
    model.train(pair(1, 1, 2, 2), true);
    model.reset();
    EXPECT_EQ(model.observed(), 0u);
    EXPECT_EQ(model.fieldAt({1, 1}), 0.0);
}

TEST(Model, AccuracyHandlesDegenerateInput)
{
    attack::DistanceFieldModel model(kGeom);
    EXPECT_EQ(model.accuracy({}, {}), 0.0);
}

TEST(ModelAttack, LearningCurveRises)
{
    Rng rng(99);
    auto plane = authenticache::mc::randomPlane(kGeom, 20, rng);

    auto curve = attack::runModelAttack(plane, 30000, 6, 1500,
                                        attack::ModelParams{}, rng);
    ASSERT_EQ(curve.size(), 7u);
    EXPECT_EQ(curve.front().observedCrps, 0u);
    EXPECT_EQ(curve.back().observedCrps, 30000u);

    // Untrained: coin-flip accuracy (Authenticache's near-ideal
    // uniformity); trained: substantially better.
    EXPECT_NEAR(curve.front().predictionRate, 0.5, 0.1);
    EXPECT_GT(curve.back().predictionRate, 0.70);
    EXPECT_GT(curve.back().predictionRate,
              curve.front().predictionRate + 0.15);
}

TEST(ModelAttack, MoreTrainingHelps)
{
    Rng rng(7);
    auto plane = authenticache::mc::randomPlane(kGeom, 20, rng);
    Rng rng_a(1);
    Rng rng_b(1);
    auto short_run = attack::runModelAttack(
        plane, 2000, 1, 1500, attack::ModelParams{}, rng_a);
    auto long_run = attack::runModelAttack(
        plane, 40000, 1, 1500, attack::ModelParams{}, rng_b);
    EXPECT_GE(long_run.back().predictionRate,
              short_run.back().predictionRate);
}

TEST(ModelAttack, ResetAfterRemapDropsAccuracy)
{
    // The paper's countermeasure: rotating the logical map forces the
    // attacker to retrain. Model that as accuracy against a fresh
    // permutation of the same physical map.
    Rng rng(13);
    auto plane_before = authenticache::mc::randomPlane(kGeom, 20, rng);
    auto plane_after = authenticache::mc::randomPlane(kGeom, 20, rng);

    attack::DistanceFieldModel model(kGeom);
    attack::ModelParams params;

    // Train hard on the pre-remap map.
    std::vector<core::ChallengeBit> val_bits;
    std::vector<bool> truth_before;
    std::vector<bool> truth_after;
    Rng vrng(17);
    auto truth = [&](const core::ErrorPlane &plane,
                     const core::ChallengeBit &bit) {
        auto da = core::nearestErrorBrute(plane, bit.a.line);
        auto db = core::nearestErrorBrute(plane, bit.b.line);
        return core::responseBitFromDistances(
            da.found ? da.distance : core::kInfiniteDistance,
            db.found ? db.distance : core::kInfiniteDistance);
    };
    for (int i = 0; i < 1000; ++i) {
        auto bit = pair(
            static_cast<std::uint32_t>(vrng.nextBelow(kGeom.sets())),
            static_cast<std::uint32_t>(vrng.nextBelow(kGeom.ways())),
            static_cast<std::uint32_t>(vrng.nextBelow(kGeom.sets())),
            static_cast<std::uint32_t>(vrng.nextBelow(kGeom.ways())));
        val_bits.push_back(bit);
        truth_before.push_back(truth(plane_before, bit));
        truth_after.push_back(truth(plane_after, bit));
    }
    for (int i = 0; i < 30000; ++i) {
        auto bit = pair(
            static_cast<std::uint32_t>(vrng.nextBelow(kGeom.sets())),
            static_cast<std::uint32_t>(vrng.nextBelow(kGeom.ways())),
            static_cast<std::uint32_t>(vrng.nextBelow(kGeom.sets())),
            static_cast<std::uint32_t>(vrng.nextBelow(kGeom.ways())));
        model.train(bit, truth(plane_before, bit));
    }

    double acc_before = model.accuracy(val_bits, truth_before);
    double acc_after = model.accuracy(val_bits, truth_after);
    EXPECT_GT(acc_before, 0.70);
    EXPECT_LT(acc_after, 0.60); // Knowledge does not transfer.
}

TEST(ReplayAttacker, FindsLatestFramesByType)
{
    namespace proto = authenticache::protocol;
    proto::Transcript transcript;
    auto sent = [&](const proto::Message &m) {
        transcript.record(proto::Direction::ClientToServer,
                          proto::encodeMessage(m));
    };
    sent(proto::AuthRequest{1});
    sent(proto::AuthRequest{2});
    proto::ResponseMsg resp;
    resp.nonce = 7;
    resp.response = authenticache::util::BitVec(8);
    sent(resp);

    authenticache::attack::ReplayAttacker attacker(transcript);
    auto req = attacker.lastRequestFrame();
    ASSERT_TRUE(req.has_value());
    auto decoded = proto::decodeMessage(*req);
    EXPECT_EQ(std::get<proto::AuthRequest>(decoded).deviceId,
              2u); // Latest request, not the first.

    auto captured = attacker.lastResponseFrame();
    ASSERT_TRUE(captured.has_value());
    EXPECT_EQ(*captured, proto::encodeMessage(resp)); // Verbatim.
}

TEST(ReplayAttacker, EmptyTranscriptYieldsNothing)
{
    authenticache::protocol::Transcript transcript;
    authenticache::attack::ReplayAttacker attacker(transcript);
    EXPECT_FALSE(attacker.lastRequestFrame().has_value());
    EXPECT_FALSE(attacker.lastResponseFrame().has_value());
}
