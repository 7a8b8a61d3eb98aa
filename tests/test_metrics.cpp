/** @file Unit tests for metric accumulation. */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/metrics.hpp"
#include "sim/model_replay.hpp"

namespace qccd
{
namespace
{

constexpr int kMaxChain = 4;

TEST(Metrics, MakespanTracksLatestEnd)
{
    SimResult r;
    r.noteOp(PrimKind::GateMS, 100, 100, false);
    r.noteOp(PrimKind::GateMS, 60, 10, false);
    EXPECT_DOUBLE_EQ(r.makespan, 100.0);
    r.noteOp(PrimKind::GateMS, 520, 20, false);
    EXPECT_DOUBLE_EQ(r.makespan, 520.0);
}

TEST(Metrics, FidelityIsProductOfOps)
{
    HardwareParams hw;
    hw.oneQubitError = 0.1;
    hw.measureError = 0.2;
    SimResult r;
    ModelFold fold(hw, kMaxChain, r);
    fold.oneQubit();
    fold.measure();
    EXPECT_NEAR(r.fidelity(), 0.72, 1e-12);
}

TEST(Metrics, ZeroFidelityClampedNotFatal)
{
    // A 2 s gate: the background term alone exceeds 1, so the gate
    // error clamps to 1 and its fidelity to 0.
    const HardwareParams hw;
    SimResult r;
    ModelFold fold(hw, kMaxChain, r);
    EXPECT_EQ(fold.ms(0, 2, 2e6).fidelity(), 0.0);
    EXPECT_EQ(r.zeroFidelityOps, 1);
    EXPECT_GT(r.fidelity(), 0.0);
    EXPECT_TRUE(std::isfinite(r.logFidelity));
}

TEST(Metrics, CountsByKind)
{
    SimResult r;
    r.noteOp(PrimKind::GateMS, 1, 1, false);
    r.noteOp(PrimKind::GateMS, 1, 1, true);
    r.noteOp(PrimKind::Split, 0, 0, true);
    r.noteOp(PrimKind::Gate1Q, 0, 0, false);

    EXPECT_EQ(r.counts.algorithmMs, 1);
    EXPECT_EQ(r.counts.reorderMs, 1);
    EXPECT_EQ(r.counts.totalMs(), 2);
    EXPECT_EQ(r.counts.splits, 1);
    EXPECT_EQ(r.counts.oneQubit, 1);
}

TEST(Metrics, BusyTimeSplitsByClass)
{
    SimResult r;
    r.noteOp(PrimKind::GateMS, 100, 100, false); // compute
    r.noteOp(PrimKind::GateMS, 30, 30, true);    // comm (reorder gate)
    r.noteOp(PrimKind::Merge, 80, 80, true);

    EXPECT_DOUBLE_EQ(r.computeBusy, 100.0);
    EXPECT_DOUBLE_EQ(r.commBusy, 110.0);
}

TEST(Metrics, ErrorDecompositionAverages)
{
    const HardwareParams hw;
    SimResult r;
    ModelFold fold(hw, kMaxChain, r);
    const GateErrorBreakdown err = fold.ms(0, 2, 100);
    fold.ms(0, 2, 100);
    r.noteOp(PrimKind::GateMS, 100, 100, false);
    r.noteOp(PrimKind::GateMS, 200, 100, false);
    EXPECT_NEAR(r.meanBackgroundError(), err.background, 1e-12);
    EXPECT_NEAR(r.meanMotionalError(), err.motional, 1e-12);
}

TEST(Metrics, EmptyResultDefaults)
{
    SimResult r;
    EXPECT_DOUBLE_EQ(r.fidelity(), 1.0);
    EXPECT_DOUBLE_EQ(r.makespan, 0.0);
    EXPECT_DOUBLE_EQ(r.meanBackgroundError(), 0.0);
}

} // namespace
} // namespace qccd
