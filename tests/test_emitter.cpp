/** @file Unit tests for primitive op emission and chain reordering. */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/builders.hpp"
#include "compiler/reorder.hpp"
#include "sim/metrics.hpp"

namespace qccd
{
namespace
{

/** Fixture: 5 ions [0..4] in trap 0 of a 2-trap linear device. */
class EmitterTest : public ::testing::Test
{
  protected:
    EmitterTest()
        : topo_(makeLinear(2, 8)), state_(topo_, 5),
          emitter_(state_, hw_, result_, &trace_)
    {
        for (IonId i = 0; i < 5; ++i)
            state_.placeIon(0, i, i);
    }

    HardwareParams hw_;
    Topology topo_;
    DeviceState state_;
    SimResult result_;
    Trace trace_;
    PrimitiveEmitter emitter_;

    /**
     * Give trap 0's chain some energy the only way a schedule can:
     * split its right-end ion off and merge it back (order unchanged).
     * @return the chain energy afterwards
     */
    Quanta heatTrapZero()
    {
        IonId ion = kInvalidId;
        emitter_.emitSplit(0, ChainEnd::Right, 0, &ion);
        emitter_.emitMerge(0, ChainEnd::Right, ion, 0);
        return emitter_.model().energy(0);
    }
};

TEST_F(EmitterTest, MsGateChargesTrapTimeline)
{
    const TimeUs end = emitter_.emitMs(0, 1, 0, false);
    // FM on a 5-ion chain: max(13.33*5-54, 100) = 100 us.
    EXPECT_DOUBLE_EQ(end, 100.0);
    ASSERT_EQ(trace_.size(), 1u);
    EXPECT_EQ(trace_[0].kind, PrimKind::GateMS);
    EXPECT_EQ(trace_[0].separation, 1);
    EXPECT_EQ(trace_[0].chainLength, 5);
    EXPECT_EQ(result_.counts.algorithmMs, 1);

    // A second gate in the same trap serializes.
    const TimeUs end2 = emitter_.emitMs(2, 3, 0, false);
    EXPECT_DOUBLE_EQ(end2, 200.0);
}

TEST_F(EmitterTest, MsFidelityMatchesModel)
{
    const Quanta nbar = heatTrapZero();
    EXPECT_GT(nbar, 0.0);
    emitter_.emitMs(0, 4, 0, false);
    const FidelityModel model = hw_.fidelityModel();
    const GateTimeModel times = hw_.gateTimeModel();
    const double expected =
        model.twoQubitFidelity(times.twoQubit(4, 5), 5, nbar);
    ASSERT_EQ(trace_.back().kind, PrimKind::GateMS);
    EXPECT_EQ(trace_.back().nbar, nbar);
    EXPECT_NEAR(trace_.back().fidelity, expected, 1e-12);
    EXPECT_NEAR(result_.logFidelity, std::log(expected), 1e-12);
}

TEST_F(EmitterTest, OneQubitAndMeasureTimes)
{
    EXPECT_DOUBLE_EQ(emitter_.emitOneQubit(3, 0), 5.0);
    EXPECT_DOUBLE_EQ(emitter_.emitMeasure(3, 0), 155.0);
    EXPECT_EQ(result_.counts.oneQubit, 1);
    EXPECT_EQ(result_.counts.measurements, 1);
}

TEST_F(EmitterTest, SplitDetachesAndHeats)
{
    const Quanta energy = heatTrapZero();
    IonId ion = kInvalidId;
    const TimeUs end = emitter_.emitSplit(0, ChainEnd::Right, 160, &ion);
    EXPECT_DOUBLE_EQ(end, 240.0);
    EXPECT_EQ(ion, 4);
    EXPECT_EQ(state_.chain(0).size(), 4);
    // Chain keeps 4/5 of the energy plus k1; the ion takes 1/5 + k1.
    EXPECT_NEAR(emitter_.model().energy(0), 0.8 * energy + 0.1, 1e-12);
    EXPECT_NEAR(emitter_.model().flight(), 0.2 * energy + 0.1, 1e-12);
    EXPECT_EQ(result_.counts.splits, 2);
}

TEST_F(EmitterTest, MergeAttachesAndHeats)
{
    IonId ion = kInvalidId;
    emitter_.emitSplit(0, ChainEnd::Right, 0, &ion);
    const Quanta ion_energy = emitter_.model().flight();

    // Merge starts at ready=100 (split ended at 80) and runs 80 us.
    const TimeUs end = emitter_.emitMerge(1, ChainEnd::Left, ion, 100);
    EXPECT_DOUBLE_EQ(end, 180.0);
    EXPECT_EQ(state_.trapOf(ion), 1);
    // Empty destination chain: merged energy = 0 + ion energy + k1.
    EXPECT_NEAR(emitter_.model().energy(1), ion_energy + 0.1, 1e-12);
    EXPECT_EQ(result_.counts.merges, 1);
}

TEST_F(EmitterTest, MoveAddsEnergyPerSegment)
{
    IonId ion = kInvalidId;
    emitter_.emitSplit(0, ChainEnd::Right, 0, &ion);
    const Quanta before = emitter_.model().flight();
    const TimeUs end = emitter_.emitMove(0, ion, 1000);
    EXPECT_DOUBLE_EQ(end, 1005.0); // one segment, 5 us
    EXPECT_NEAR(emitter_.model().flight(), before + 0.01, 1e-12);
    EXPECT_EQ(result_.counts.segmentsMoved, 1);
}

TEST_F(EmitterTest, GsReorderUsesThreeGates)
{
    TimeUs done = 0;
    const IonId carrier =
        emitter_.reorderToEnd(0, ChainEnd::Right, 0, &done);
    // Payload 0 teleports into the ion already at the right end.
    EXPECT_EQ(carrier, 4);
    EXPECT_EQ(state_.payloadOf(4), 0);
    EXPECT_EQ(state_.payloadOf(0), 4);
    EXPECT_EQ(result_.counts.reorderMs, 3);
    EXPECT_DOUBLE_EQ(done, 300.0); // 3 FM gates at 100 us
    // Physical order unchanged under GS.
    EXPECT_EQ(state_.positionOf(0), 0);
}

TEST_F(EmitterTest, GsReorderNoOpWhenAlreadyAtEnd)
{
    TimeUs done = 123;
    const IonId carrier =
        emitter_.reorderToEnd(4, ChainEnd::Right, 123, &done);
    EXPECT_EQ(carrier, 4);
    EXPECT_DOUBLE_EQ(done, 123.0);
    EXPECT_TRUE(trace_.empty());
}

TEST_F(EmitterTest, IsReorderHopsPhysically)
{
    hw_.reorder = ReorderMethod::IS;
    PrimitiveEmitter is_emitter(state_, hw_, result_, &trace_);
    TimeUs done = 0;
    const IonId carrier =
        is_emitter.reorderToEnd(3, ChainEnd::Left, 0, &done);
    // IS moves the same physical ion all the way to the left end.
    EXPECT_EQ(carrier, 3);
    EXPECT_EQ(state_.positionOf(3), 0);
    EXPECT_TRUE(state_.positionIndexConsistent());
    // Three hops, each split+rotate+merge on a >2 ion chain.
    EXPECT_EQ(result_.counts.rotations, 3);
    EXPECT_EQ(result_.counts.splits, 3);
    EXPECT_EQ(result_.counts.merges, 3);
    // Each hop adds 3*k1 = 0.3 quanta.
    EXPECT_NEAR(is_emitter.model().energy(0), 0.9, 1e-12);
    EXPECT_DOUBLE_EQ(done, 3 * (80 + 50 + 80));
}

TEST_F(EmitterTest, IsReorderTwoIonChainRotatesOnly)
{
    hw_.reorder = ReorderMethod::IS;
    const Topology small = makeLinear(1, 4);
    DeviceState state(small, 2);
    state.placeIon(0, 0, 0);
    state.placeIon(0, 1, 1);
    SimResult result;
    Trace trace;
    PrimitiveEmitter emitter(state, hw_, result, &trace);
    TimeUs done = 0;
    emitter.reorderToEnd(1, ChainEnd::Left, 0, &done);
    EXPECT_EQ(result.counts.rotations, 1);
    EXPECT_EQ(result.counts.splits, 0);
    EXPECT_DOUBLE_EQ(done, 50.0);
    EXPECT_EQ(state.positionOf(1), 0);
}

TEST_F(EmitterTest, ZeroCommModeKeepsHeatingAndFidelity)
{
    SimResult result;
    Trace trace;
    PrimitiveEmitter zero(state_, hw_, result, &trace, true);
    IonId ion = kInvalidId;
    const TimeUs end = zero.emitSplit(0, ChainEnd::Right, 0, &ion);
    EXPECT_DOUBLE_EQ(end, 0.0); // zero duration
    EXPECT_GT(zero.model().flight(), 0.0); // heating still applied
}

TEST_F(EmitterTest, QubitReadinessRespected)
{
    emitter_.qubitReady()[2] = 500.0;
    const TimeUs end = emitter_.emitOneQubit(2, 0);
    EXPECT_DOUBLE_EQ(end, 505.0);
}

} // namespace
} // namespace qccd
