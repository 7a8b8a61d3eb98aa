/** @file Cross-validation tests: recompute metrics independently from
 *  the emitted trace and compare against the scheduler's accumulators.
 *  This catches any place where time, fidelity or counts could be
 *  charged twice or skipped. Also ModelFold's event rules, pinned by
 *  hand, and the replay of its log against the live fold. */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/builders.hpp"
#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "circuit/stats.hpp"
#include "compiler/scheduler.hpp"
#include "sim/model_replay.hpp"

namespace qccd
{
namespace
{

class ReplayConsistency
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(ReplayConsistency, TraceReproducesScalarMetrics)
{
    const auto &[app, cap] = GetParam();
    const Circuit native =
        decomposeToNative(makeBenchmarkSized(app, 20));
    const Topology topo = makeLinear(4, cap);
    HardwareParams hw;
    Scheduler sched(native, topo, hw);
    const ScheduleResult r = sched.run();

    // Replay the trace: recompute makespan, the fidelity product and
    // the op counts from the raw op stream.
    TimeUs makespan = 0;
    double log_fid = 0;
    long ms = 0;
    long reorder_ms = 0;
    long splits = 0;
    long merges = 0;
    for (const PrimOp &op : r.trace) {
        makespan = std::max(makespan, op.end());
        log_fid += std::log(std::max(op.fidelity, 1e-15));
        switch (op.kind) {
          case PrimKind::GateMS:
            op.forCommunication ? ++reorder_ms : ++ms;
            break;
          case PrimKind::Split:
            ++splits;
            break;
          case PrimKind::Merge:
            ++merges;
            break;
          default:
            break;
        }
    }
    EXPECT_DOUBLE_EQ(makespan, r.metrics.makespan);
    EXPECT_NEAR(log_fid, r.metrics.logFidelity,
                std::abs(log_fid) * 1e-12 + 1e-12);
    EXPECT_EQ(ms, r.metrics.counts.algorithmMs);
    EXPECT_EQ(reorder_ms, r.metrics.counts.reorderMs);
    EXPECT_EQ(splits, r.metrics.counts.splits);
    EXPECT_EQ(merges, r.metrics.counts.merges);
}

TEST_P(ReplayConsistency, AlgorithmGateCountMatchesCircuit)
{
    const auto &[app, cap] = GetParam();
    const Circuit native =
        decomposeToNative(makeBenchmarkSized(app, 20));
    const CircuitStats stats = computeStats(native);
    const Topology topo = makeLinear(4, cap);
    HardwareParams hw;
    Scheduler sched(native, topo, hw);
    const ScheduleResult r = sched.run();

    // Every program gate executes exactly once, regardless of how much
    // communication the placement needed.
    EXPECT_EQ(r.metrics.counts.algorithmMs, stats.twoQubitGates);
    EXPECT_EQ(r.metrics.counts.oneQubit, stats.oneQubitGates);
    EXPECT_EQ(r.metrics.counts.measurements, stats.measurements);
}

TEST_P(ReplayConsistency, MsGateFidelitiesMatchModelPointwise)
{
    const auto &[app, cap] = GetParam();
    const Circuit native =
        decomposeToNative(makeBenchmarkSized(app, 20));
    const Topology topo = makeLinear(4, cap);
    HardwareParams hw;
    Scheduler sched(native, topo, hw);
    const ScheduleResult r = sched.run();

    const GateTimeModel times = hw.gateTimeModel();
    const FidelityModel model = hw.fidelityModel();
    for (const PrimOp &op : r.trace) {
        if (op.kind != PrimKind::GateMS)
            continue;
        const TimeUs tau =
            times.twoQubit(op.separation, op.chainLength);
        EXPECT_NEAR(op.fidelity,
                    model.twoQubitFidelity(tau, op.chainLength, op.nbar),
                    1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ReplayConsistency,
    ::testing::Combine(::testing::Values("qft", "supremacy",
                                         "squareroot", "vqe"),
                       ::testing::Values(6, 10)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_cap" +
               std::to_string(std::get<1>(info.param));
    });

TEST(ReplayConsistency, EnergyNeverNegativeAlongTrace)
{
    const Circuit native =
        decomposeToNative(makeBenchmarkSized("squareroot", 24));
    const Topology topo = makeLinear(6, 6);
    HardwareParams hw;
    Scheduler sched(native, topo, hw);
    const ScheduleResult r = sched.run();
    for (const PrimOp &op : r.trace) {
        if (op.kind == PrimKind::GateMS) {
            ASSERT_GE(op.nbar, 0.0);
        }
    }
    EXPECT_GE(r.metrics.maxChainEnergy, 0.0);
}

TEST(ReplayConsistency, RecoolingNeverIncreasesGateEnergies)
{
    const Circuit native =
        decomposeToNative(makeBenchmarkSized("qft", 20));
    const Topology topo = makeLinear(4, 8);
    HardwareParams base;
    HardwareParams cooled = base;
    cooled.recoolFactor = 0.2;

    Scheduler a(native, topo, base);
    Scheduler b(native, topo, cooled);
    const SimResult ra = a.run().metrics;
    const SimResult rb = b.run().metrics;
    EXPECT_LE(rb.maxChainEnergy, ra.maxChainEnergy);
    EXPECT_GE(rb.logFidelity, ra.logFidelity);
}

constexpr int kFoldMaxChain = 6;

/** Default k1 = 0.1 and k2 = 0.01, with merges recooling to half. */
HardwareParams
halfRecool()
{
    HardwareParams hw;
    hw.recoolFactor = 0.5;
    return hw;
}

TEST(ModelFold, EventRulesByHand)
{
    SimResult out;
    ModelFold fold(halfRecool(), kFoldMaxChain, out);

    fold.split(0, 4);
    EXPECT_NEAR(fold.energy(0), 0.1, 1e-12);
    EXPECT_NEAR(fold.flight(), 0.1, 1e-12);

    fold.moves(3);
    fold.junction();
    EXPECT_NEAR(fold.flight(), 0.14, 1e-12);

    // A shuttle's merge recools: (0 + 0.14 + 0.1) * 0.5.
    fold.merge(1);
    EXPECT_NEAR(fold.energy(1), 0.12, 1e-12);

    // A hop's merge does not: 0.12 splits 3:2 into 0.172 and 0.148,
    // which merge back with one more k1.
    fold.ionSwapHop(1, 5);
    EXPECT_NEAR(fold.energy(1), 0.42, 1e-12);

    // The last ion out takes the whole chain energy plus k1.
    fold.split(1, 0);
    EXPECT_NEAR(fold.flight(), 0.52, 1e-12);
    EXPECT_EQ(fold.energy(1), 0.0);
    EXPECT_NEAR(fold.energy(0), 0.1, 1e-12);

    EXPECT_NEAR(out.maxChainEnergy, 0.52, 1e-12);
}

/** The hand-checked steps, with gates around them. */
void
foldSteps(ModelFold &fold)
{
    fold.oneQubit();
    fold.ms(0, 5, 120.0);
    fold.split(0, 4);
    fold.moves(3);
    fold.junction();
    fold.merge(1);
    fold.ms(1, 2, 100.0);
    fold.ionSwapHop(1, 5);
    fold.ms(1, 5, 150.0);
    fold.measure();
    fold.split(1, 0);
}

void
expectSameModelFields(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.logFidelity, b.logFidelity);
    EXPECT_EQ(a.zeroFidelityOps, b.zeroFidelityOps);
    EXPECT_EQ(a.sumBackgroundError, b.sumBackgroundError);
    EXPECT_EQ(a.sumMotionalError, b.sumMotionalError);
    EXPECT_EQ(a.maxChainEnergy, b.maxChainEnergy);
}

TEST(ModelFold, ReplayOfItsLogEqualsTheLiveFold)
{
    const HardwareParams hw = halfRecool();
    SimResult live;
    live.makespan = 1234.5; // schedule-determined: replays copy it
    ModelEvalLog log;
    ModelFold fold(hw, kFoldMaxChain, live, &log);
    foldSteps(fold);
    ASSERT_EQ(log.events().size(), 11u);
    EXPECT_EQ(log.maxChain(), kFoldMaxChain);
    EXPECT_LT(live.logFidelity, 0.0);

    // Same knobs: the replay is the live fold again.
    const SimResult same = replayModelEval(log, hw, live);
    expectSameModelFields(same, live);
    EXPECT_EQ(same.makespan, live.makespan);

    // Changed k1 and recool: the replay equals a fresh live fold.
    HardwareParams other = hw;
    other.heatingK1 = 0.25;
    other.recoolFactor = 0.8;
    SimResult fresh;
    ModelFold ref(other, kFoldMaxChain, fresh);
    foldSteps(ref);
    const SimResult changed = replayModelEval(log, other, live);
    expectSameModelFields(changed, fresh);
    EXPECT_NE(changed.maxChainEnergy, live.maxChainEnergy);
    EXPECT_EQ(changed.makespan, live.makespan);
}

} // namespace
} // namespace qccd
