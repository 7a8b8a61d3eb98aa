/**
 * @file
 * Knob-mutation property test for the hardware knob table
 * (kHardwareKnobs in models/params.hpp).
 *
 * Each row's tags are checked against what the program does, not
 * against the table: one knob at a time is perturbed (reals halved,
 * integers and enums stepped) over small apps x devices x GS/IS, and
 *  - every knob changes the result store's key;
 *  - a knob outside the schedule key is replayed by StagedToolflow
 *    bit-identically to a scalar run, and leaves the scheduled
 *    primitive stream unchanged;
 *  - every such model-only knob moves some metric in some case;
 *  - a knob outside the context key leaves the routing cost unchanged;
 *  - a knob outside the placement key leaves the initial mapping
 *    unchanged;
 *  - a knob outside the tables key leaves every ModelTables entry
 *    unchanged.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "core/result_store.hpp"
#include "models/model_tables.hpp"

namespace qccd
{
namespace
{

/** Row @p i's "params" key, or a positional label for axis-only rows. */
std::string
label(size_t i)
{
    const char *name = kHardwareKnobs[i].name;
    return name != nullptr ? name : "row " + std::to_string(i);
}

/** @p hw with knob @p i perturbed: a real halved, an integer or enum
 *  stepped down (up from 0), so the result is valid and differs. */
HardwareParams
perturbed(const HardwareParams &hw, size_t i)
{
    const HardwareKnob &knob = kHardwareKnobs[i];
    const double value = knob.get(hw);
    HardwareParams out = hw;
    if (knob.type == KnobType::Real)
        knob.set(out, value / 2);
    else
        knob.set(out, value > 0 ? value - 1 : value + 1);
    return out;
}

bool
sameResult(const RunResult &a, const RunResult &b)
{
    const SimResult &x = a.sim;
    const SimResult &y = b.sim;
    const OpCounts &cx = x.counts;
    const OpCounts &cy = y.counts;
    return x.makespan == y.makespan && x.logFidelity == y.logFidelity &&
           x.zeroFidelityOps == y.zeroFidelityOps &&
           x.maxChainEnergy == y.maxChainEnergy &&
           x.sumBackgroundError == y.sumBackgroundError &&
           x.sumMotionalError == y.sumMotionalError &&
           x.computeBusy == y.computeBusy && x.commBusy == y.commBusy &&
           x.effectiveBuffer == y.effectiveBuffer &&
           a.computeOnlyTime == b.computeOnlyTime &&
           cx.algorithmMs == cy.algorithmMs &&
           cx.reorderMs == cy.reorderMs && cx.oneQubit == cy.oneQubit &&
           cx.measurements == cy.measurements && cx.splits == cy.splits &&
           cx.merges == cy.merges && cx.moves == cy.moves &&
           cx.segmentsMoved == cy.segmentsMoved &&
           cx.junctionCrossings == cy.junctionCrossings &&
           cx.rotations == cy.rotations && cx.transits == cy.transits &&
           cx.shuttles == cy.shuttles && cx.evictions == cy.evictions &&
           cx.trapPassThroughs == cy.trapPassThroughs;
}

/** Equal schedules: the same primitives on the same resources at the
 *  same times. The model-evaluated fields (nbar, error terms,
 *  fidelity) are left out. */
bool
sameStream(const Trace &a, const Trace &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const PrimOp &x = a[i];
        const PrimOp &y = b[i];
        if (x.kind != y.kind || x.start != y.start ||
            x.duration != y.duration || x.trap != y.trap ||
            x.edge != y.edge || x.junction != y.junction ||
            x.ion != y.ion || x.q0 != y.q0 || x.q1 != y.q1 ||
            x.chainLength != y.chainLength ||
            x.separation != y.separation ||
            x.forCommunication != y.forCommunication)
            return false;
    }
    return true;
}

bool
sameMapping(const InitialMapping &a, const InitialMapping &b)
{
    return a.trapOf == b.trapOf && a.chainOrder == b.chainOrder &&
           a.effectiveBuffer == b.effectiveBuffer;
}

bool
samePathCost(const PathCost &a, const PathCost &b)
{
    return a.perSegment == b.perSegment && a.yJunction == b.yJunction &&
           a.xJunction == b.xJunction &&
           a.trapPassThrough == b.trapPassThrough;
}

/** Every value the tables serve, the embedded models' included. */
bool
sameTables(const ModelTables &a, const ModelTables &b)
{
    if (a.maxChain() != b.maxChain() ||
        a.logOneQubitFidelity() != b.logOneQubitFidelity() ||
        a.logMeasureFidelity() != b.logMeasureFidelity() ||
        a.logUnitFidelity() != b.logUnitFidelity() ||
        a.gateTime().impl() != b.gateTime().impl() ||
        a.gateTime().oneQubit() != b.gateTime().oneQubit() ||
        a.gateTime().measure() != b.gateTime().measure() ||
        a.heating().k1() != b.heating().k1() ||
        a.heating().k2() != b.heating().k2() ||
        a.fidelity().gammaPerSecond() != b.fidelity().gammaPerSecond() ||
        a.fidelity().kappa() != b.fidelity().kappa() ||
        a.fidelity().oneQubitFidelity() != b.fidelity().oneQubitFidelity() ||
        a.fidelity().measureFidelity() != b.fidelity().measureFidelity())
        return false;
    for (int n = 2; n <= a.maxChain() + 1; ++n) {
        if (a.scaleFactorA(n) != b.scaleFactorA(n))
            return false;
        for (int d = 1; d < n; ++d)
            if (a.twoQubit(d, n) != b.twoQubit(d, n))
                return false;
        const GateErrorBreakdown ea = a.msError(150.0, n, 0.75);
        const GateErrorBreakdown eb = b.msError(150.0, n, 0.75);
        if (ea.background != eb.background || ea.motional != eb.motional)
            return false;
    }
    return true;
}

/** One design under test: a small app on a small device. */
struct KnobCase
{
    const char *app;
    const char *topology;
    int capacity;
    ReorderMethod reorder;
};

std::vector<KnobCase>
knobCases()
{
    std::vector<KnobCase> cases;
    for (const char *app : {"qft", "bv"})
        for (const char *topology : {"linear:4", "grid:2x2"})
            for (const ReorderMethod reorder :
                 {ReorderMethod::GS, ReorderMethod::IS})
                cases.push_back({app, topology, 6, reorder});
    return cases;
}

std::string
caseLabel(const KnobCase &c)
{
    return std::string(c.app) + " on " + c.topology + ":" +
           std::to_string(c.capacity) + " " +
           reorderMethodName(c.reorder);
}

TEST(Knobs, TableListsEveryFieldOnceWithItsParamsName)
{
    // The names are the "params" keys; only gate and reorder are
    // axis-only, and every name resolves back to its own row.
    size_t unnamed = 0;
    for (size_t i = 0; i < kHardwareKnobs.size(); ++i) {
        const HardwareKnob &knob = kHardwareKnobs[i];
        if (knob.name == nullptr) {
            ++unnamed;
            continue;
        }
        EXPECT_EQ(&hardwareKnob(knob.name), &knob) << label(i);
    }
    EXPECT_EQ(unnamed, 2u);
    EXPECT_EQ(hardwareOverrideKeys().size(), kHardwareKnobs.size() - 2);

    // Perturbing one knob changes exactly that knob's value.
    const HardwareParams base;
    for (size_t i = 0; i < kHardwareKnobs.size(); ++i) {
        const HardwareParams changed = perturbed(base, i);
        for (size_t j = 0; j < kHardwareKnobs.size(); ++j)
            EXPECT_EQ(kHardwareKnobs[j].get(changed) ==
                          kHardwareKnobs[j].get(base),
                      i != j)
                << label(i) << " vs " << label(j);
        EXPECT_NO_THROW(changed.validate()) << label(i);
    }
}

TEST(Knobs, KnobsOutsideTheTablesKeyLeaveEveryTableEntry)
{
    constexpr int kMaxChain = 12;
    const HardwareParams base;
    const ModelTables tables(base, kMaxChain);
    for (size_t i = 0; i < kHardwareKnobs.size(); ++i) {
        if ((kHardwareKnobs[i].keys & kKnobTables) != 0)
            continue;
        const ModelTables other(perturbed(base, i), kMaxChain);
        EXPECT_TRUE(sameTables(tables, other)) << label(i);
    }
}

TEST(Knobs, EveryTagMatchesWhatTheToolflowReads)
{
    std::vector<bool> moved(kHardwareKnobs.size(), false);
    RunOptions options;
    options.decomposeRuntime = true;

    for (const KnobCase &c : knobCases()) {
        SCOPED_TRACE(caseLabel(c));
        const Circuit native =
            decomposeToNative(makeBenchmarkSized(c.app, 10));
        const Digest128 digest = ResultStore::circuitDigest(native);

        DesignPoint base;
        base.topologySpec = c.topology;
        base.trapCapacity = c.capacity;
        base.hw.reorder = c.reorder;
        const ToolflowContext base_context(base);
        const RunResult base_run =
            runToolflow(native, base, base_context, options);
        const ScheduleResult base_detail =
            runToolflowDetailed(native, base, base_context, options);
        const Digest128 base_key =
            ResultStore::keyFor(base, options, digest);

        for (size_t i = 0; i < kHardwareKnobs.size(); ++i) {
            const unsigned keys = kHardwareKnobs[i].keys;
            DesignPoint design = base;
            design.hw = perturbed(base.hw, i);
            const ToolflowContext context(design);

            EXPECT_NE(ResultStore::keyFor(design, options, digest),
                      base_key)
                << label(i);

            if ((keys & kKnobContext) == 0) {
                EXPECT_TRUE(samePathCost(Scheduler::pathCostFrom(design.hw),
                                         Scheduler::pathCostFrom(base.hw)))
                    << label(i);
            }

            const ScheduleResult detail =
                runToolflowDetailed(native, design, context, options);
            if ((keys & kKnobPlacement) == 0) {
                EXPECT_TRUE(sameMapping(detail.mapping, base_detail.mapping))
                    << label(i);
            }
            if ((keys & kScheduleKeyKnobs) != 0)
                continue;

            // Model-only: the schedule stands, and a replay of the
            // base point's log is exactly the scalar run.
            EXPECT_TRUE(sameStream(detail.trace, base_detail.trace))
                << label(i);
            StagedToolflow staged;
            staged.run(native, base, base_context, options);
            const RunResult replayed =
                staged.run(native, design, context, options);
            EXPECT_EQ(staged.stats().replays, 1u) << label(i);
            const RunResult scalar =
                runToolflow(native, design, context, options);
            EXPECT_TRUE(sameResult(replayed, scalar)) << label(i);
            if (!sameResult(scalar, base_run))
                moved[i] = true;
        }
    }

    for (size_t i = 0; i < kHardwareKnobs.size(); ++i) {
        if ((kHardwareKnobs[i].keys & kScheduleKeyKnobs) == 0) {
            EXPECT_TRUE(moved[i])
                << label(i) << " is model-only but moved no metric";
        }
    }
}

} // namespace
} // namespace qccd
