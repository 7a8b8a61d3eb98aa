/** @file Unit + integration tests for the backend scheduler. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "arch/builders.hpp"
#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "compiler/scheduler.hpp"
#include "core/toolflow.hpp"
#include "sim/model_replay.hpp"

namespace qccd
{
namespace
{

HardwareParams
fmGs()
{
    HardwareParams hw;
    hw.gateImpl = GateImpl::FM;
    hw.reorder = ReorderMethod::GS;
    return hw;
}

TEST(Scheduler, RequiresNativeGates)
{
    const Topology topo = makeLinear(2, 6);
    Circuit c(2);
    c.cx(0, 1); // not native
    EXPECT_THROW(Scheduler(c, topo, fmGs()), ConfigError);
}

TEST(Scheduler, SingleTrapSerialGates)
{
    const Topology topo = makeLinear(1, 6);
    Circuit c(4);
    c.ms(0, 1);
    c.ms(2, 3);
    Scheduler sched(c, topo, fmGs());
    const ScheduleResult r = sched.run();
    // Both gates in one trap execute serially: 2 x 100 us FM gates.
    EXPECT_DOUBLE_EQ(r.metrics.makespan, 200.0);
    EXPECT_EQ(r.metrics.counts.algorithmMs, 2);
    EXPECT_EQ(r.metrics.counts.shuttles, 0);
}

TEST(Scheduler, ParallelTrapsOverlap)
{
    const Topology topo = makeLinear(2, 6);
    Circuit c(8);
    // H prologue pins the first-use order so qubits 0..3 land in trap
    // 0 and 4..7 in trap 1 (buffer 2 -> 4 per trap).
    for (QubitId q = 0; q < 8; ++q)
        c.h(q);
    c.ms(0, 1);
    c.ms(4, 5);
    Scheduler sched(c, topo, fmGs());
    const ScheduleResult r = sched.run();
    // Independent traps run concurrently: 4 serial H (20 us) then one
    // 100 us FM gate in each trap.
    EXPECT_DOUBLE_EQ(r.metrics.makespan, 120.0);
}

TEST(Scheduler, CrossTrapGateShuttles)
{
    const Topology topo = makeLinear(2, 6);
    Circuit c(8);
    for (QubitId q = 0; q < 8; ++q)
        c.h(q); // pin placement: 0..3 in trap 0, 4..7 in trap 1
    c.ms(0, 4);
    SchedulerScratch scratch;
    Scheduler sched(c, topo, fmGs(), {}, &scratch);
    const ScheduleResult r = sched.run();
    EXPECT_EQ(r.metrics.counts.shuttles, 1);
    EXPECT_EQ(r.metrics.counts.splits, 1);
    EXPECT_EQ(r.metrics.counts.merges, 1);
    EXPECT_EQ(r.metrics.counts.moves, 1);
    EXPECT_EQ(r.metrics.counts.algorithmMs, 1);
    // Shuttling exercised split/attach on both ends: the O(1) position
    // index must still agree with the chain contents.
    ASSERT_NE(scratch.deviceState(), nullptr);
    EXPECT_TRUE(scratch.deviceState()->positionIndexConsistent());
    // Reorder: qubit 0 sits at the left end of trap 0 and must reach
    // the right end -> one GS swap (3 MS gates).
    EXPECT_EQ(r.metrics.counts.reorderMs, 3);
    // Timing: 20 (H prologue per trap) + 3*100 (GS swap, waits for
    // q3's H at t=20) + 80 (split) + 5 (move) + 80 (merge) + 100
    // (FM gate on the merged 5-ion chain, still at the 100 us floor).
    EXPECT_DOUBLE_EQ(r.metrics.makespan, 20 + 300 + 80 + 5 + 80 + 100);
}

TEST(Scheduler, MeasurementsAndOneQubitGates)
{
    const Topology topo = makeLinear(1, 4);
    Circuit c(2);
    c.h(0);
    c.ms(0, 1);
    c.measure(0);
    c.measure(1);
    Scheduler sched(c, topo, fmGs());
    const ScheduleResult r = sched.run();
    EXPECT_EQ(r.metrics.counts.oneQubit, 1);
    EXPECT_EQ(r.metrics.counts.measurements, 2);
    // h(5) + ms(100) + two serial measures (150 each).
    EXPECT_DOUBLE_EQ(r.metrics.makespan, 5 + 100 + 150 + 150);
}

TEST(Scheduler, RunIsSingleShot)
{
    const Topology topo = makeLinear(1, 4);
    Circuit c(2);
    c.ms(0, 1);
    Scheduler sched(c, topo, fmGs());
    sched.run();
    EXPECT_THROW(sched.run(), InternalError);
}

TEST(Scheduler, DeterministicAcrossRuns)
{
    const Topology topo = makeLinear(3, 8);
    const Circuit native = decomposeToNative([] {
        Circuit c(12, "mix");
        for (QubitId q = 0; q + 1 < 12; ++q)
            c.cx(q, q + 1);
        for (QubitId q = 0; q < 12; q += 3)
            c.cx(q, 11 - q);
        c.measureAll();
        return c;
    }());

    Scheduler a(native, topo, fmGs());
    Scheduler b(native, topo, fmGs());
    const ScheduleResult ra = a.run();
    const ScheduleResult rb = b.run();
    EXPECT_DOUBLE_EQ(ra.metrics.makespan, rb.metrics.makespan);
    EXPECT_DOUBLE_EQ(ra.metrics.logFidelity, rb.metrics.logFidelity);
    ASSERT_EQ(ra.trace.size(), rb.trace.size());
    for (size_t i = 0; i < ra.trace.size(); ++i)
        EXPECT_DOUBLE_EQ(ra.trace[i].start, rb.trace[i].start);
}

TEST(Scheduler, EvictionWhenDestinationFull)
{
    // Two traps of capacity 4, zero buffer: trap 0 holds 0-3, trap 1
    // holds 4-7. A gate between 0 and 4 must evict someone.
    const Topology topo = makeLinear(3, 4);
    HardwareParams hw = fmGs();
    hw.bufferSlots = 0;
    Circuit c(8);
    for (QubitId q = 0; q < 8; ++q)
        c.h(q); // pin placement
    c.ms(0, 4);
    Scheduler sched(c, topo, hw);
    const ScheduleResult r = sched.run();
    EXPECT_GE(r.metrics.counts.evictions, 1);
    EXPECT_EQ(r.metrics.counts.algorithmMs, 1);
}

TEST(Scheduler, LinearPassThroughUsesIntermediateTrap)
{
    // Three traps; a gate between trap 0 and trap 2 must traverse the
    // occupied middle trap: merge + reorder + split there (Fig. 4).
    const Topology topo = makeLinear(3, 6);
    Circuit c(12);
    for (QubitId q = 0; q < 12; ++q)
        c.h(q); // pin placement
    c.ms(0, 11); // trap 0 left end to trap 2
    Scheduler sched(c, topo, fmGs());
    const ScheduleResult r = sched.run();
    EXPECT_EQ(r.metrics.counts.trapPassThroughs, 1);
    EXPECT_GE(r.metrics.counts.splits, 2);
    EXPECT_GE(r.metrics.counts.merges, 2);
}

TEST(Scheduler, GridAvoidsPassThroughs)
{
    const Topology topo = makeGrid(2, 3, 8);
    Circuit c(24);
    for (QubitId q = 0; q < 24; ++q)
        c.h(q); // pin placement
    c.ms(0, 23); // far corner to far corner
    Scheduler sched(c, topo, fmGs());
    const ScheduleResult r = sched.run();
    EXPECT_EQ(r.metrics.counts.trapPassThroughs, 0);
    EXPECT_GE(r.metrics.counts.junctionCrossings, 1);
}

TEST(Scheduler, IsReorderingProducesRotations)
{
    const Topology topo = makeLinear(2, 8);
    HardwareParams hw = fmGs();
    hw.reorder = ReorderMethod::IS;
    Circuit c(10);
    for (QubitId q = 0; q < 10; ++q)
        c.h(q); // pin placement
    c.ms(0, 9);
    SchedulerScratch scratch;
    Scheduler sched(c, topo, hw, {}, &scratch);
    const ScheduleResult r = sched.run();
    EXPECT_GT(r.metrics.counts.rotations, 0);
    EXPECT_EQ(r.metrics.counts.reorderMs, 0);
    // IS hops permute chains in place; check the position index.
    ASSERT_NE(scratch.deviceState(), nullptr);
    EXPECT_TRUE(scratch.deviceState()->positionIndexConsistent());
}

TEST(Scheduler, PositionIndexConsistentAfterHeavySchedule)
{
    // A shuttle/eviction/pass-through heavy run on a linear device,
    // under both reorder methods, must leave the per-ion position
    // index agreeing with every chain (the invariant the O(1)
    // positionOf depends on).
    for (const ReorderMethod method :
         {ReorderMethod::GS, ReorderMethod::IS}) {
        const Topology topo = makeLinear(3, 6);
        HardwareParams hw = fmGs();
        hw.reorder = method;
        hw.bufferSlots = 1;
        const Circuit native = decomposeToNative([] {
            Circuit c(14, "stress");
            for (QubitId q = 0; q < 14; ++q)
                c.h(q);
            for (QubitId q = 0; q + 1 < 14; ++q)
                c.cx(q, q == 13 - q ? q + 1 : 13 - q);
            for (QubitId q = 0; q < 14; q += 2)
                c.cx(q, (q + 7) % 14);
            c.measureAll();
            return c;
        }());
        SchedulerScratch scratch;
        Scheduler sched(native, topo, hw, {}, &scratch);
        const ScheduleResult r = sched.run();
        EXPECT_GT(r.metrics.counts.shuttles, 0);
        ASSERT_NE(scratch.deviceState(), nullptr);
        EXPECT_TRUE(scratch.deviceState()->positionIndexConsistent());
    }
}

TEST(Scheduler, ScratchReuseAcrossRunsIsBitIdentical)
{
    const Topology topo = makeLinear(3, 8);
    const Circuit native = decomposeToNative([] {
        Circuit c(12, "mix");
        for (QubitId q = 0; q + 1 < 12; ++q)
            c.cx(q, q + 1);
        c.measureAll();
        return c;
    }());

    Scheduler fresh(native, topo, fmGs());
    const ScheduleResult expect = fresh.run();

    SchedulerScratch scratch;
    for (int round = 0; round < 3; ++round) {
        Scheduler sched(native, topo, fmGs(), {}, &scratch);
        const ScheduleResult r = sched.run();
        EXPECT_EQ(r.metrics.makespan, expect.metrics.makespan);
        EXPECT_EQ(r.metrics.logFidelity, expect.metrics.logFidelity);
        ASSERT_EQ(r.trace.size(), expect.trace.size());
        for (size_t i = 0; i < r.trace.size(); ++i)
            EXPECT_EQ(r.trace[i].start, expect.trace[i].start);
        EXPECT_TRUE(scratch.deviceState()->positionIndexConsistent());
    }
}

TEST(Scheduler, FidelityAccumulatesOverGates)
{
    const Topology topo = makeLinear(1, 6);
    Circuit c(2);
    c.ms(0, 1);
    c.ms(0, 1);
    Scheduler sched(c, topo, fmGs());
    const ScheduleResult r = sched.run();
    ASSERT_EQ(r.trace.size(), 2u);
    EXPECT_NEAR(r.metrics.fidelity(),
                r.trace[0].fidelity * r.trace[1].fidelity, 1e-12);
    EXPECT_LT(r.metrics.fidelity(), 1.0);
}

TEST(Scheduler, BarrierOnlyCircuitRuns)
{
    const Topology topo = makeLinear(1, 4);
    Circuit c(2);
    Gate b;
    b.op = Op::Barrier;
    c.add(b);
    Scheduler sched(c, topo, fmGs());
    const ScheduleResult r = sched.run();
    EXPECT_DOUBLE_EQ(r.metrics.makespan, 0.0);
}

/**
 * Digest of every schedule-determined RunResult field: makespan,
 * log-fidelity, compute-only time and every OpCounts counter.
 */
std::string
runDigest(const RunResult &r)
{
    StableHash h;
    h.f64(r.sim.makespan);
    h.f64(r.sim.logFidelity);
    h.f64(r.computeOnlyTime);
    const OpCounts &c = r.sim.counts;
    for (const long v :
         {c.algorithmMs, c.reorderMs, c.oneQubit, c.measurements,
          c.splits, c.merges, c.moves, c.segmentsMoved,
          c.junctionCrossings, c.rotations, c.transits, c.shuttles,
          c.evictions, c.trapPassThroughs})
        h.i64(v);
    return h.digest().hex();
}

/** Bit-for-bit equality of two doubles. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool
sameMetrics(const SimResult &a, const SimResult &b)
{
    const OpCounts &x = a.counts;
    const OpCounts &y = b.counts;
    return sameBits(a.makespan, b.makespan) &&
           sameBits(a.logFidelity, b.logFidelity) &&
           sameBits(a.maxChainEnergy, b.maxChainEnergy) &&
           sameBits(a.sumBackgroundError, b.sumBackgroundError) &&
           sameBits(a.sumMotionalError, b.sumMotionalError) &&
           sameBits(a.computeBusy, b.computeBusy) &&
           sameBits(a.commBusy, b.commBusy) &&
           a.zeroFidelityOps == b.zeroFidelityOps &&
           a.effectiveBuffer == b.effectiveBuffer &&
           x.algorithmMs == y.algorithmMs && x.reorderMs == y.reorderMs &&
           x.oneQubit == y.oneQubit && x.measurements == y.measurements &&
           x.splits == y.splits && x.merges == y.merges &&
           x.moves == y.moves && x.segmentsMoved == y.segmentsMoved &&
           x.junctionCrossings == y.junctionCrossings &&
           x.rotations == y.rotations && x.transits == y.transits &&
           x.shuttles == y.shuttles && x.evictions == y.evictions &&
           x.trapPassThroughs == y.trapPassThroughs;
}

bool
sameOp(const PrimOp &a, const PrimOp &b)
{
    return a.kind == b.kind && sameBits(a.start, b.start) &&
           sameBits(a.duration, b.duration) && a.trap == b.trap &&
           a.edge == b.edge && a.junction == b.junction &&
           a.ion == b.ion && a.q0 == b.q0 && a.q1 == b.q1 &&
           a.chainLength == b.chainLength &&
           a.separation == b.separation && sameBits(a.nbar, b.nbar) &&
           sameBits(a.errBackground, b.errBackground) &&
           sameBits(a.errMotional, b.errMotional) &&
           sameBits(a.fidelity, b.fidelity) &&
           a.forCommunication == b.forCommunication;
}

bool
sameEvent(const ModelEvalLog::Event &a, const ModelEvalLog::Event &b)
{
    return a.kind == b.kind && a.trap == b.trap && a.a == b.a &&
           sameBits(a.physDur, b.physDur);
}

/**
 * Compare two schedules field by field, bit for bit: every SimResult
 * metric, every field of every traced primitive, the initial mapping,
 * and every event of their model logs. Returns the first part that
 * differs, or an empty string when they are identical.
 */
std::string
scheduleMismatch(const ScheduleResult &a, const ModelEvalLog &log_a,
                 const ScheduleResult &b, const ModelEvalLog &log_b)
{
    if (!sameMetrics(a.metrics, b.metrics))
        return "metrics";
    if (a.trace.size() != b.trace.size())
        return "trace length";
    for (size_t i = 0; i < a.trace.size(); ++i) {
        if (!sameOp(a.trace[i], b.trace[i]))
            return "trace op " + std::to_string(i);
    }
    if (a.mapping.trapOf != b.mapping.trapOf ||
        a.mapping.chainOrder != b.mapping.chainOrder ||
        a.mapping.effectiveBuffer != b.mapping.effectiveBuffer)
        return "mapping";
    if (log_a.maxChain() != log_b.maxChain() ||
        log_a.events().size() != log_b.events().size())
        return "model log shape";
    for (size_t i = 0; i < log_a.events().size(); ++i) {
        if (!sameEvent(log_a.events()[i], log_b.events()[i]))
            return "model log event " + std::to_string(i);
    }
    return "";
}

/**
 * A seeded native circuit of one-qubit rotations and MS gates, closed
 * by measuring every qubit. @p barriers interleaves barriers (which
 * only the scheduler, never decomposeToNative, sees); @p repeats
 * follows some MS gates with more MS gates on the same pair.
 */
Circuit
randomNative(int qubits, int gates, uint64_t seed, bool barriers,
             bool repeats)
{
    Rng rng(seed);
    Circuit c(qubits, "pinned");
    for (int i = 0; i < gates; ++i) {
        const int roll = rng.nextInt(0, 9);
        const QubitId a = rng.nextInt(0, qubits - 1);
        if (roll < 3) {
            c.rx(a, 0.1 + 0.25 * roll);
            continue;
        }
        if (roll == 3 && barriers) {
            Gate barrier;
            barrier.op = Op::Barrier;
            c.add(barrier);
            continue;
        }
        QubitId b = rng.nextInt(0, qubits - 2);
        if (b >= a)
            ++b;
        c.ms(a, b);
        if (repeats && roll >= 8) {
            c.ms(b, a);
            if (roll == 9)
                c.ms(a, b);
        }
    }
    c.measureAll();
    return c;
}

/** The pinned circuits, by index. */
const std::vector<Circuit> &
pinnedCircuits()
{
    static const std::vector<Circuit> circuits = {
        randomNative(24, 300, 101, false, false),
        randomNative(20, 240, 202, true, false),
        randomNative(18, 240, 303, false, true),
        decomposeToNative(makeQft(16)),
    };
    return circuits;
}

/** One seeded schedule the committed goldens never reach. */
struct PinnedCase
{
    const char *label;
    std::string topology;
    int capacity;
    GateImpl gate;
    ReorderMethod reorder;
    MappingPolicy policy;
    int bufferSlots;
    size_t circuit; ///< index into pinnedCircuits()
    const char *digest;
};

const std::string kTopoDir =
    std::string(QCCD_SCHEDULER_TEST_SOURCE_DIR) + "/examples/topos/";

/**
 * Every case runs the Fig. 6b zero-communication pass too, so the
 * digest pins both passes. Digests were generated before the
 * scheduler's ready list and successor counts replaced its heap and
 * per-qubit gate queue, so they prove the rewrite kept the schedule.
 */
const std::vector<PinnedCase> &
pinnedCases()
{
    using G = GateImpl;
    using R = ReorderMethod;
    using P = MappingPolicy;
    static const std::vector<PinnedCase> cases = {
        {"is-zero-comm", "linear:4", 10, G::FM, R::IS, P::Packed, 2, 0,
         "8fa2738e15d1fa69b7275ad6f1996e0e"},
        {"balanced-gs", "grid:2x2", 12, G::FM, R::GS, P::Balanced, 2, 0,
         "88c70e65e8261ba13d8b11f49d1082a2"},
        {"balanced-is-barriers", "linear:5", 10, G::AM2, R::IS,
         P::Balanced, 2, 1, "a30b4f6d794b9a3c36fbcc7d884c8b4b"},
        {"am1-ring-repeats", "ring:5", 10, G::AM1, R::GS, P::Packed, 2, 2,
         "b91d805748490e7c4f6c2db53769c3bb"},
        {"am2-star-qft", "star:5", 10, G::AM2, R::GS, P::Packed, 2, 3,
         "c4071d91e20597f0b88b8bb9b852944b"},
        {"pm-htree-balanced", "htree:2", 12, G::PM, R::IS, P::Balanced,
         2, 0, "76a81f62ca19bf60ea5de4d3d9251b5f"},
        {"pm-topo-barriers", "topo:" + kTopoDir + "hub5.topo", 8, G::PM,
         R::GS, P::Packed, 2, 1, "2d29d89c8a9ec27c5f8c36797d4b18ff"},
        {"am1-topo-repeats", "topo:" + kTopoDir + "ring6.topo", 8, G::AM1,
         R::IS, P::Balanced, 1, 2, "c9885c1d9c0cb076c56cff19ffe5b609"},
        {"evict-repeats", "linear:3", 8, G::FM, R::GS, P::Packed, 0, 2,
         "bf2579febaec9d1c43871780d4261263"},
    };
    return cases;
}

DesignPoint
pinnedDesign(const PinnedCase &pc)
{
    DesignPoint dp;
    dp.topologySpec = pc.topology;
    dp.trapCapacity = pc.capacity;
    dp.hw.gateImpl = pc.gate;
    dp.hw.reorder = pc.reorder;
    dp.hw.bufferSlots = pc.bufferSlots;
    return dp;
}

RunOptions
pinnedOptions(const PinnedCase &pc)
{
    RunOptions options;
    options.decomposeRuntime = true;
    options.mappingPolicy = pc.policy;
    return options;
}

TEST(Scheduler, PinnedSchedulesOutsideTheGoldens)
{
    for (const PinnedCase &pc : pinnedCases()) {
        const Circuit &native = pinnedCircuits().at(pc.circuit);
        const DesignPoint dp = pinnedDesign(pc);
        const ToolflowContext context(dp);
        const RunResult r =
            runToolflow(native, dp, context, pinnedOptions(pc));
        EXPECT_GT(r.sim.counts.shuttles, 0) << pc.label;
        EXPECT_GT(r.computeOnlyTime, 0) << pc.label;
        EXPECT_EQ(runDigest(r), pc.digest) << pc.label;
    }
}

TEST(Scheduler, StagedRunsMatchPinnedSchedules)
{
    // One staged toolflow walks every case twice in a row with only
    // the gate implementation changed the second time: the second run
    // is a full schedule over the first run's cached placement, and
    // both must equal the direct runs.
    StagedToolflow staged;
    size_t runs = 0;
    for (const PinnedCase &pc : pinnedCases()) {
        const Circuit &native = pinnedCircuits().at(pc.circuit);
        DesignPoint dp = pinnedDesign(pc);
        const ToolflowContext context(dp);
        const RunOptions options = pinnedOptions(pc);
        EXPECT_EQ(runDigest(staged.run(native, dp, context, options)),
                  pc.digest)
            << pc.label;
        dp.hw.gateImpl =
            pc.gate == GateImpl::FM ? GateImpl::PM : GateImpl::FM;
        EXPECT_EQ(runDigest(staged.run(native, dp, context, options)),
                  runDigest(runToolflow(native, dp, context, options)))
            << pc.label;
        runs += 2;
    }
    EXPECT_EQ(staged.stats().fullSchedules, runs);
    EXPECT_EQ(staged.stats().placementsReused, runs / 2);
}

/** One configuration of the plan-sharing differential. */
struct PlanCase
{
    std::string label;
    const Circuit *native;
    DesignPoint design;
    MappingPolicy policy = MappingPolicy::Packed;
};

/** One traced Scheduler pass of @p pc, borrowing @p plan if given. */
ScheduleResult
schedulePass(const PlanCase &pc, const ToolflowContext &context,
             const SchedulePlan *plan, bool zero_comm,
             const InitialMapping *placement, ModelEvalLog *log,
             SchedulerScratch *scratch)
{
    ScheduleOptions options;
    options.zeroCommTimes = zero_comm;
    options.mappingPolicy = pc.policy;
    options.placement = placement;
    options.plan = plan;
    options.modelLog = log;
    Scheduler sched(*pc.native, context.topology(), pc.design.hw,
                    context.paths(), options, scratch);
    return sched.run();
}

TEST(Scheduler, SharedPlanMatchesPerRunPlanInAnyOrder)
{
    // The nine pinned cases, plus Fig. 8's microarchitecture grid on
    // three applications at three capacities. Each circuit's
    // configurations run in scrambled order off ONE plan (and one
    // scratch, as a sweep worker runs them); each real pass, its model
    // log and its zero-communication pass must equal runs that build
    // their own plan.
    static const std::vector<Circuit> apps = {
        decomposeToNative(makeBenchmark("adder")),
        decomposeToNative(makeBenchmark("qft")),
        decomposeToNative(makeBenchmark("supremacy")),
    };
    std::vector<PlanCase> cases;
    for (const PinnedCase &pc : pinnedCases())
        cases.push_back({pc.label, &pinnedCircuits().at(pc.circuit),
                         pinnedDesign(pc), pc.policy});
    for (const Circuit &native : apps) {
        for (const GateImpl gate :
             {GateImpl::AM1, GateImpl::AM2, GateImpl::FM, GateImpl::PM}) {
            for (const ReorderMethod reorder :
                 {ReorderMethod::GS, ReorderMethod::IS}) {
                for (const int cap : {14, 22, 34}) {
                    const DesignPoint dp =
                        DesignPoint::linear(6, cap, gate, reorder);
                    cases.push_back({native.name() + " " + dp.label(),
                                     &native, dp});
                }
            }
        }
    }
    Rng rng(1414);
    for (size_t i = cases.size(); i > 1; --i)
        std::swap(cases[i - 1], cases[rng.nextBelow(i)]);

    std::vector<const Circuit *> circuits;
    for (const PlanCase &pc : cases) {
        if (std::find(circuits.begin(), circuits.end(), pc.native) ==
            circuits.end())
            circuits.push_back(pc.native);
    }
    ASSERT_EQ(circuits.size(), pinnedCircuits().size() + apps.size());

    size_t checked = 0;
    for (const Circuit *native : circuits) {
        const SchedulePlan plan(*native);
        SchedulerScratch scratch;
        for (const PlanCase &pc : cases) {
            if (pc.native != native)
                continue;
            const ToolflowContext context(pc.design);
            ModelEvalLog own_log;
            ModelEvalLog shared_log;
            const ScheduleResult own = schedulePass(
                pc, context, nullptr, false, nullptr, &own_log, nullptr);
            const ScheduleResult shared = schedulePass(
                pc, context, &plan, false, nullptr, &shared_log,
                &scratch);
            EXPECT_EQ(scheduleMismatch(shared, shared_log, own, own_log),
                      "")
                << pc.label;

            const ModelEvalLog none;
            const ScheduleResult own_zero =
                schedulePass(pc, context, nullptr, true, &own.mapping,
                             nullptr, nullptr);
            const ScheduleResult shared_zero =
                schedulePass(pc, context, &plan, true, &shared.mapping,
                             nullptr, &scratch);
            EXPECT_GT(own_zero.metrics.makespan, 0) << pc.label;
            EXPECT_EQ(scheduleMismatch(shared_zero, none, own_zero, none),
                      "")
                << pc.label;
            ++checked;
        }
    }
    EXPECT_EQ(checked, pinnedCases().size() + 72);
}

TEST(Scheduler, StagedPlanCacheFollowsCircuitSwitches)
{
    // Two circuits of one shape (same gate and qubit counts), so only
    // the circuit's identity tells their plans apart. Every point must
    // equal the scalar run, and a plan is built exactly when the
    // circuit differs from the previous point's.
    const Circuit a = randomNative(16, 200, 4141, false, false);
    const Circuit b = randomNative(16, 200, 4242, false, false);
    ASSERT_EQ(a.size(), b.size());
    const DesignPoint base = DesignPoint::linear(3, 8);
    const ToolflowContext context(base);
    RunOptions options;
    options.decomposeRuntime = true;

    const Circuit *sequence[] = {&a, &b, &a, &b, &b, &a, &a, &b};
    const GateImpl gates[] = {GateImpl::FM, GateImpl::AM1, GateImpl::AM2,
                              GateImpl::PM};
    StagedToolflow staged;
    size_t switches = 0;
    const Circuit *previous = nullptr;
    for (size_t i = 0; i < std::size(sequence); ++i) {
        const Circuit &native = *sequence[i];
        DesignPoint dp = base;
        dp.hw.gateImpl = gates[i % std::size(gates)];
        dp.hw.reorder = i % 3 == 0 ? ReorderMethod::IS : ReorderMethod::GS;
        switches += &native != previous ? 1 : 0;
        previous = &native;
        EXPECT_EQ(runDigest(staged.run(native, dp, context, options)),
                  runDigest(runToolflow(native, dp, context, options)))
            << "point " << i;
        EXPECT_EQ(staged.stats().plansBuilt, switches) << "point " << i;
    }
    EXPECT_EQ(switches, 6u);
    EXPECT_EQ(staged.stats().fullSchedules, std::size(sequence));
}

TEST(Scheduler, NonNativeCircuitFailsAlikeEverywhere)
{
    // The plan's native-set check names the first foreign gate in
    // program order, with one text whether the Scheduler builds the
    // plan or a StagedToolflow does.
    Circuit c(4);
    c.h(0);
    c.cx(0, 1);
    c.cz(2, 3);
    c.measureAll();
    const DesignPoint dp = DesignPoint::linear(2, 6);
    const ToolflowContext context(dp);

    std::string direct;
    try {
        Scheduler sched(c, context.topology(), dp.hw);
    } catch (const ConfigError &e) {
        direct = e.what();
    }
    EXPECT_EQ(direct, "scheduler requires the native gate set; lower with "
                      "decomposeToNative() (found " +
                          c.gate(1).toString() + ")");

    // A native circuit caches its plan first; the failed build then
    // drops it, so the native circuit's next point rebuilds instead of
    // scheduling off the half-built plan the throw left behind.
    const Circuit &native = pinnedCircuits().at(0);
    const DesignPoint native_dp = DesignPoint::linear(4, 10);
    const ToolflowContext native_context(native_dp);
    const std::string want =
        runDigest(runToolflow(native, native_dp, native_context, {}));
    StagedToolflow staged;
    EXPECT_EQ(runDigest(staged.run(native, native_dp, native_context, {})),
              want);
    for (int round = 0; round < 2; ++round) {
        std::string through_staged;
        try {
            staged.run(c, dp, context, {});
        } catch (const ConfigError &e) {
            through_staged = e.what();
        }
        EXPECT_EQ(through_staged, direct) << "round " << round;
    }
    EXPECT_EQ(staged.stats().plansBuilt, 1u);
    EXPECT_EQ(runDigest(staged.run(native, native_dp, native_context, {})),
              want);
    EXPECT_EQ(staged.stats().plansBuilt, 2u);
    EXPECT_EQ(staged.stats().fullSchedules, 2u);
}

} // namespace
} // namespace qccd
