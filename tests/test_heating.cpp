/** @file Unit + property tests for the motional heating model. */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "models/params.hpp"

namespace qccd
{
namespace
{

TEST(Heating, DefaultsMatchPaper)
{
    const HeatingModel model = HardwareParams{}.heatingModel();
    EXPECT_DOUBLE_EQ(model.k1(), 0.1);
    EXPECT_DOUBLE_EQ(model.k2(), 0.01);
}

TEST(Heating, SplitDividesProportionally)
{
    HeatingModel model(0.1, 0.01);
    const auto [a, b] = model.afterSplit(10.0, 3, 1);
    EXPECT_DOUBLE_EQ(a, 7.5 + 0.1);
    EXPECT_DOUBLE_EQ(b, 2.5 + 0.1);
}

TEST(Heating, MergeSumsPlusK1)
{
    HeatingModel model(0.1, 0.01);
    EXPECT_DOUBLE_EQ(model.afterMerge(1.5, 2.5), 4.0 + 0.1);
}

TEST(Heating, MovePerSegment)
{
    HeatingModel model(0.1, 0.01);
    EXPECT_DOUBLE_EQ(model.afterMove(1.0, 3), 1.03);
    EXPECT_DOUBLE_EQ(model.afterMove(1.0, 0), 1.0);
}

TEST(Heating, AfterMovesBitwiseMatchesSegmentLoop)
{
    // afterMoves(e, k) replaces the emitter's per-segment loop; the
    // contract is bit-for-bit equality with applying afterMove(., 1)
    // k times (EXPECT_EQ on doubles is exact equality). The closed
    // form afterMove(e, k) would NOT satisfy this: the stepwise
    // partial sums round differently, which is why the model keeps
    // the recurrence.
    HeatingModel model(0.1, 0.01);
    for (double energy : {0.0, 0.1, 1.0, 3.7, 123.456, 9876.54321}) {
        for (int segments : {0, 1, 2, 3, 7, 25, 100}) {
            double looped = energy;
            for (int s = 0; s < segments; ++s)
                looped = model.afterMove(looped, 1);
            EXPECT_EQ(model.afterMoves(energy, segments), looped)
                << "e=" << energy << " k=" << segments;
        }
    }
    // Odd k2 values too, not just the paper default.
    HeatingModel odd(0.1, 0.0123456789);
    double looped = 0.3;
    for (int s = 0; s < 13; ++s)
        looped = odd.afterMove(looped, 1);
    EXPECT_EQ(odd.afterMoves(0.3, 13), looped);
    EXPECT_THROW(odd.afterMoves(1.0, -1), InternalError);
}

TEST(Heating, JunctionAddsK2)
{
    HeatingModel model(0.1, 0.01);
    EXPECT_DOUBLE_EQ(model.afterJunction(0.5), 0.51);
}

TEST(Heating, InvalidSplitArgsPanic)
{
    HeatingModel model(0.1, 0.01);
    EXPECT_THROW(model.afterSplit(1.0, 0, 1), InternalError);
    EXPECT_THROW(model.afterSplit(-1.0, 1, 1), InternalError);
    EXPECT_THROW(model.afterMove(1.0, -1), InternalError);
}

/** Property: split conserves the parent energy (before k1 injection). */
class HeatingSplitProperty
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(HeatingSplitProperty, EnergyConservedUpToK1)
{
    const auto [na, nb] = GetParam();
    HeatingModel model(0.1, 0.01);
    for (double energy : {0.0, 0.3, 5.0, 123.456}) {
        const auto [a, b] = model.afterSplit(energy, na, nb);
        // Sub-chain energies are the conserved shares plus one k1 each.
        EXPECT_NEAR(a + b, energy + 2 * model.k1(), 1e-12);
        EXPECT_GE(a, model.k1());
        EXPECT_GE(b, model.k1());
        // Larger sub-chain takes at least the smaller one's share.
        if (na > nb) {
            EXPECT_GE(a, b);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ChainSizes, HeatingSplitProperty,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 1}, std::pair{9, 1},
                      std::pair{5, 5}, std::pair{19, 1},
                      std::pair{17, 3}, std::pair{33, 2}));

/** Property: a split-then-merge cycle adds exactly 3*k1. */
TEST(Heating, SplitMergeCycleAddsThreeK1)
{
    HeatingModel model(0.1, 0.01);
    for (double energy : {0.0, 1.0, 42.0}) {
        const auto [rest, ion] = model.afterSplit(energy, 7, 1);
        const double merged = model.afterMerge(rest, ion);
        EXPECT_NEAR(merged, energy + 3 * model.k1(), 1e-12);
    }
}

} // namespace
} // namespace qccd
