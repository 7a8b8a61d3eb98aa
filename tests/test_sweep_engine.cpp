/**
 * @file
 * Tests for the parallel sweep engine: worker-count determinism, the
 * shared-context fast path agreeing with the uncached toolflow, job
 * resolution, and cache behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "benchgen/benchgen.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/sweep_engine.hpp"

namespace qccd
{
namespace
{

/** Field-by-field exact equality of two run results. */
void
expectIdenticalResults(const RunResult &a, const RunResult &b,
                       const std::string &what)
{
    EXPECT_EQ(a.sim.makespan, b.sim.makespan) << what;
    EXPECT_EQ(a.sim.logFidelity, b.sim.logFidelity) << what;
    EXPECT_EQ(a.sim.zeroFidelityOps, b.sim.zeroFidelityOps) << what;
    EXPECT_EQ(a.sim.maxChainEnergy, b.sim.maxChainEnergy) << what;
    EXPECT_EQ(a.sim.sumBackgroundError, b.sim.sumBackgroundError) << what;
    EXPECT_EQ(a.sim.sumMotionalError, b.sim.sumMotionalError) << what;
    EXPECT_EQ(a.sim.computeBusy, b.sim.computeBusy) << what;
    EXPECT_EQ(a.sim.commBusy, b.sim.commBusy) << what;
    EXPECT_EQ(a.sim.effectiveBuffer, b.sim.effectiveBuffer) << what;
    EXPECT_EQ(a.computeOnlyTime, b.computeOnlyTime) << what;

    const OpCounts &ca = a.sim.counts;
    const OpCounts &cb = b.sim.counts;
    EXPECT_EQ(ca.algorithmMs, cb.algorithmMs) << what;
    EXPECT_EQ(ca.reorderMs, cb.reorderMs) << what;
    EXPECT_EQ(ca.oneQubit, cb.oneQubit) << what;
    EXPECT_EQ(ca.measurements, cb.measurements) << what;
    EXPECT_EQ(ca.splits, cb.splits) << what;
    EXPECT_EQ(ca.merges, cb.merges) << what;
    EXPECT_EQ(ca.moves, cb.moves) << what;
    EXPECT_EQ(ca.segmentsMoved, cb.segmentsMoved) << what;
    EXPECT_EQ(ca.junctionCrossings, cb.junctionCrossings) << what;
    EXPECT_EQ(ca.rotations, cb.rotations) << what;
    EXPECT_EQ(ca.transits, cb.transits) << what;
    EXPECT_EQ(ca.shuttles, cb.shuttles) << what;
    EXPECT_EQ(ca.evictions, cb.evictions) << what;
    EXPECT_EQ(ca.trapPassThroughs, cb.trapPassThroughs) << what;
}

void
expectIdenticalPoints(const std::vector<SweepPoint> &a,
                      const std::vector<SweepPoint> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].application, b[i].application);
        EXPECT_EQ(a[i].design.label(), b[i].design.label());
        expectIdenticalResults(a[i].result, b[i].result,
                               a[i].design.label());
    }
}

/** A small mixed batch: two apps, two topologies, decompose pass on. */
std::vector<SweepJob>
smallBatch()
{
    std::vector<SweepJob> jobs;
    RunOptions options;
    options.decomposeRuntime = true;
    for (const char *app : {"qft", "qaoa"}) {
        const auto native =
            SweepEngine::lower(makeBenchmarkSized(app, 16));
        for (const std::string &spec : {std::string("linear:4"),
                                        std::string("grid:2x2")}) {
            for (int cap : {6, 8}) {
                SweepJob job;
                job.application = app;
                job.native = native;
                job.design.topologySpec = spec;
                job.design.trapCapacity = cap;
                job.options = options;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

TEST(SweepEngine, DeterministicAcrossWorkerCounts)
{
    SweepEngine serial(1);
    SweepEngine four(4);
    SweepEngine hardware(static_cast<int>(std::max(
        1u, std::thread::hardware_concurrency())));

    const auto jobs = smallBatch();
    const auto a = serial.run(jobs);
    const auto b = four.run(jobs);
    const auto c = hardware.run(jobs);

    ASSERT_EQ(a.size(), 8u);
    expectIdenticalPoints(a, b);
    expectIdenticalPoints(a, c);
}

TEST(SweepEngine, RepeatedRunsOnOneEngineAreIdentical)
{
    SweepEngine engine(4);
    const auto jobs = smallBatch();
    expectIdenticalPoints(engine.run(jobs), engine.run(jobs));
}

TEST(SweepEngine, CachedAndUncachedToolflowAgreeForEveryAppAndGate)
{
    // The regression the caches must never introduce: for every
    // application x gate implementation, the shared-context fast path
    // must equal a from-scratch runToolflow bit for bit.
    SweepEngine engine;
    RunOptions options;
    options.decomposeRuntime = true;
    for (const BenchmarkSpec &spec : benchmarkList()) {
        const Circuit app = makeBenchmarkSized(spec.name, 16);
        const auto native = SweepEngine::lower(app);
        for (GateImpl gate : {GateImpl::AM1, GateImpl::AM2, GateImpl::PM,
                              GateImpl::FM}) {
            DesignPoint dp = DesignPoint::linear(4, 8, gate);
            const RunResult uncached = runToolflow(app, dp, options);
            const RunResult cached = runToolflow(
                *native, dp, *engine.context(dp), options);
            expectIdenticalResults(uncached, cached,
                                   spec.name + " " + dp.label());
        }
    }
}

TEST(SweepEngine, ContextCacheKeySeparatesArchitectures)
{
    const DesignPoint a = DesignPoint::linear(6, 22);
    DesignPoint b = a;
    EXPECT_EQ(ToolflowContext::cacheKey(a), ToolflowContext::cacheKey(b));

    // Gate implementation and reorder method do not touch the
    // architecture: contexts are shared across them.
    b.hw.gateImpl = GateImpl::AM1;
    b.hw.reorder = ReorderMethod::IS;
    EXPECT_EQ(ToolflowContext::cacheKey(a), ToolflowContext::cacheKey(b));

    // Topology, capacity, and shuttle timings do.
    DesignPoint c = a;
    c.trapCapacity = 14;
    EXPECT_NE(ToolflowContext::cacheKey(a), ToolflowContext::cacheKey(c));
    DesignPoint d = a;
    d.topologySpec = "grid:2x3";
    EXPECT_NE(ToolflowContext::cacheKey(a), ToolflowContext::cacheKey(d));
    DesignPoint e = a;
    e.hw.shuttle.movePerSegment = 7.5;
    EXPECT_NE(ToolflowContext::cacheKey(a), ToolflowContext::cacheKey(e));
}

TEST(SweepEngine, ContextsAreSharedPerArchitecture)
{
    SweepEngine engine(1);
    const DesignPoint fm = DesignPoint::linear(6, 22, GateImpl::FM);
    const DesignPoint am1 = DesignPoint::linear(6, 22, GateImpl::AM1);
    EXPECT_EQ(engine.context(fm).get(), engine.context(am1).get());

    const DesignPoint other = DesignPoint::linear(6, 14);
    EXPECT_NE(engine.context(fm).get(), engine.context(other).get());
}

TEST(SweepEngine, ResolveJobsPrefersExplicitThenEnvThenHardware)
{
    EXPECT_EQ(SweepEngine::resolveJobs(3), 3);

    ASSERT_EQ(setenv("QCCD_JOBS", "5", 1), 0);
    EXPECT_EQ(SweepEngine::resolveJobs(0), 5);
    EXPECT_EQ(SweepEngine::resolveJobs(2), 2);

    ASSERT_EQ(unsetenv("QCCD_JOBS"), 0);
    EXPECT_GE(SweepEngine::resolveJobs(0), 1);
}

TEST(SweepEngineDeathTest, ResolveJobsRejectsMalformedEnv)
{
    // A set but broken QCCD_JOBS is a usage error (exit 2 with a
    // pointed diagnostic), never a silent hardware-concurrency
    // fallback: std::atoi used to turn "garbage" into a surprise
    // core count and "4x" into 4.
    for (const char *bad :
         {"garbage", "4x", "0", "-2", "", " 4", "99999999999999999999"}) {
        ASSERT_EQ(setenv("QCCD_JOBS", bad, 1), 0);
        EXPECT_EXIT(SweepEngine::resolveJobs(0),
                    testing::ExitedWithCode(2), "bad QCCD_JOBS")
            << "value: '" << bad << "'";
    }
    ASSERT_EQ(unsetenv("QCCD_JOBS"), 0);
}

/**
 * The staged toolflow's whole contract: evaluating a batch through the
 * engine (which groups by schedule key and replays model logs) must be
 * bit-identical to evaluating every point from scratch with scalar
 * runToolflow, for any worker count and any batch composition. Random
 * grids mix pure model-knob axes (replay candidates) with
 * schedule-affecting axes (gate implementation, capacity, reorder,
 * placement policy) so both the reuse and the invalidation edges are
 * exercised.
 */
TEST(SweepEngine, StagedEvaluationMatchesScalarToolflowOnRandomGrids)
{
    Rng rng(0x5eedc0de);
    const char *apps[] = {"qft", "qaoa", "bv", "adder"};

    for (int trial = 0; trial < 30; ++trial) {
        const char *app = apps[rng.nextInt(0, 3)];
        const auto native =
            SweepEngine::lower(makeBenchmarkSized(app, 12));

        const DesignPoint base = rng.nextBool()
                                     ? DesignPoint::linear(4, 8)
                                     : DesignPoint::linear(3, 10);

        std::vector<DesignPoint> designs{base};
        const auto expand = [&designs](int count, const auto &apply) {
            std::vector<DesignPoint> out;
            for (const DesignPoint &d : designs)
                for (int v = 0; v < count; ++v) {
                    DesignPoint e = d;
                    apply(e, v);
                    out.push_back(e);
                }
            designs = std::move(out);
        };

        // One or two pure model-knob axes (the replay fast path)...
        const int model_axes = rng.nextInt(1, 2);
        for (int a = 0; a < model_axes; ++a) {
            switch (rng.nextInt(0, 3)) {
            case 0:
                expand(rng.nextInt(2, 3), [](DesignPoint &d, int v) {
                    d.hw.gammaPerS = 1.0 + 0.75 * v;
                });
                break;
            case 1:
                expand(2, [](DesignPoint &d, int v) {
                    d.hw.heatingK1 = 0.1 + 0.05 * v;
                    d.hw.heatingK2 = 0.01 + 0.005 * v;
                });
                break;
            case 2:
                expand(2, [](DesignPoint &d, int v) {
                    d.hw.kappa = 5e-6 * (1 + v);
                    d.hw.oneQubitError = 3e-5 * (1 + 2 * v);
                });
                break;
            default:
                expand(2, [](DesignPoint &d, int v) {
                    d.hw.measureError = 1e-3 * (1 + v);
                    d.hw.recoolFactor = v == 0 ? 1.0 : 0.5;
                });
                break;
            }
        }
        // ...sometimes crossed with a schedule-affecting axis (forces
        // full re-schedules between key groups).
        switch (rng.nextInt(0, 3)) {
        case 0:
            expand(2, [](DesignPoint &d, int v) {
                d.hw.gateImpl = v == 0 ? GateImpl::FM : GateImpl::AM1;
            });
            break;
        case 1:
            expand(2, [](DesignPoint &d, int v) {
                d.trapCapacity = 8 + 2 * v;
            });
            break;
        case 2:
            expand(2, [](DesignPoint &d, int v) {
                d.hw.reorder = v == 0 ? ReorderMethod::GS
                                      : ReorderMethod::IS;
            });
            break;
        default:
            break; // model knobs only: the whole grid is one key group
        }

        RunOptions options;
        options.decomposeRuntime = rng.nextBool();
        options.mappingPolicy = rng.nextBool() ? MappingPolicy::Packed
                                               : MappingPolicy::Balanced;

        std::vector<SweepJob> jobs;
        for (const DesignPoint &d : designs) {
            SweepJob job;
            job.application = app;
            job.native = native;
            job.design = d;
            job.options = options;
            jobs.push_back(std::move(job));
        }

        SweepEngine serial(1);
        SweepEngine four(4);
        const auto a = serial.run(jobs);
        const auto b = four.run(jobs);
        expectIdenticalPoints(a, b);

        // A sharded evaluation (two halves on fresh engines) must
        // union to the same rows: replay never leaks across shard
        // boundaries.
        const size_t half = jobs.size() / 2;
        SweepEngine lo(2);
        SweepEngine hi(2);
        const auto first = lo.run(
            {jobs.begin(), jobs.begin() + static_cast<long>(half)});
        const auto second = hi.run(
            {jobs.begin() + static_cast<long>(half), jobs.end()});
        ASSERT_EQ(first.size() + second.size(), a.size());
        for (size_t i = 0; i < a.size(); ++i) {
            const SweepPoint &shard =
                i < half ? first[i] : second[i - half];
            expectIdenticalResults(a[i].result, shard.result,
                                   "shard " + a[i].design.label());
        }

        // Scalar reference: every point from scratch, no staging.
        for (size_t i = 0; i < jobs.size(); ++i) {
            const ToolflowContext context(jobs[i].design);
            const RunResult scalar =
                runToolflow(*jobs[i].native, jobs[i].design, context,
                            jobs[i].options);
            expectIdenticalResults(
                a[i].result, scalar,
                "trial " + std::to_string(trial) + " point " +
                    std::to_string(i) + " " + a[i].design.label());
        }
    }
}

TEST(SweepEngine, ModelKnobOnlyAxesCollapseToOneScheduleKeyGroup)
{
    // gateImpl axis (2 schedule keys) x gamma axis (5 model values):
    // a serial engine must schedule exactly once per key group and
    // replay everything else.
    SweepEngine engine(1);
    const auto native = SweepEngine::lower(makeBenchmarkSized("qft", 12));
    std::vector<SweepJob> jobs;
    for (GateImpl gate : {GateImpl::FM, GateImpl::AM1}) {
        for (int v = 0; v < 5; ++v) {
            SweepJob job;
            job.application = "qft";
            job.native = native;
            job.design = DesignPoint::linear(4, 8, gate);
            job.design.hw.gammaPerS = 1.0 + 0.5 * v;
            jobs.push_back(std::move(job));
        }
    }
    engine.run(jobs);
    EXPECT_EQ(engine.deltaStats().fullSchedules, 2u);
    EXPECT_EQ(engine.deltaStats().replays, 8u);
}

/**
 * qft on linear:4 at capacity 8: sizes[g] points in schedule-key
 * group g (gate implementation and reorder method tell the groups
 * apart; inside a group only gamma differs). Groups interleave point
 * by point, so the engine has to regroup them.
 */
std::vector<SweepJob>
keyGroupBatch(const std::vector<int> &sizes)
{
    const auto native = SweepEngine::lower(makeBenchmarkSized("qft", 12));
    const GateImpl gates[] = {GateImpl::FM, GateImpl::AM1, GateImpl::AM2,
                              GateImpl::PM};
    std::vector<SweepJob> jobs;
    for (int v = 0; v < *std::max_element(sizes.begin(), sizes.end());
         ++v) {
        for (size_t g = 0; g < sizes.size(); ++g) {
            if (v >= sizes[g])
                continue;
            SweepJob job;
            job.application = "qft";
            job.native = native;
            job.design = DesignPoint::linear(
                4, 8, gates[g % 4],
                g < 4 ? ReorderMethod::GS : ReorderMethod::IS);
            job.design.hw.gammaPerS = 1.0 + 0.25 * v;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

TEST(SweepEngine, StagedCountsFollowTheSpanRuleAtEveryWorkerCount)
{
    // Each key group of n points is cut into at most
    // max(1, workers / groups) contiguous spans of ceil(n / that)
    // points. A span of L points costs one full schedule and L - 1
    // replays, and records one model log when L > 1. No replay crosses
    // a span boundary, so the counts repeat exactly however the
    // workers race for spans.
    struct Counts
    {
        size_t full, replays, logs;
    };
    const struct
    {
        std::vector<int> sizes;
        Counts at[4]; // jobs = 1, 2, 3, 4
    } cases[] = {
        // Two singletons and groups of 3, 7 and 5: five groups, so one
        // span each at any worker count up to 4.
        {{1, 3, 1, 7, 5},
         {{5, 12, 3}, {5, 12, 3}, {5, 12, 3}, {5, 12, 3}}},
        // A singleton and a group of 6: four workers cut the group
        // into two spans of 3.
        {{1, 6}, {{2, 5, 1}, {2, 5, 1}, {2, 5, 1}, {3, 4, 2}}},
        // One group of 5: spans 3+2 at two workers, 2+2+1 at three or
        // four (the last span of one point records no log).
        {{5}, {{1, 4, 1}, {2, 3, 2}, {3, 2, 2}, {3, 2, 2}}},
    };
    for (const auto &c : cases) {
        const std::vector<SweepJob> jobs = keyGroupBatch(c.sizes);
        std::vector<RunResult> scalar;
        for (const SweepJob &job : jobs) {
            const ToolflowContext context(job.design);
            scalar.push_back(
                runToolflow(*job.native, job.design, context, job.options));
        }
        for (int workers = 1; workers <= 4; ++workers) {
            const Counts &want = c.at[workers - 1];
            for (int rep = 0; rep < (workers == 4 ? 20 : 1); ++rep) {
                const std::string what =
                    std::to_string(jobs.size()) + " points, jobs " +
                    std::to_string(workers) + ", rep " +
                    std::to_string(rep);
                SweepEngine engine(workers);
                const std::vector<SweepPoint> got = engine.run(jobs);
                const StagedToolflow::Stats &stats = engine.deltaStats();
                EXPECT_EQ(stats.fullSchedules, want.full) << what;
                EXPECT_EQ(stats.replays, want.replays) << what;
                EXPECT_EQ(stats.logsRecorded, want.logs) << what;
                ASSERT_EQ(got.size(), jobs.size()) << what;
                for (size_t i = 0; i < jobs.size(); ++i)
                    expectIdenticalResults(got[i].result, scalar[i],
                                           what + " point " +
                                               std::to_string(i));
            }
        }
    }
}

TEST(StagedToolflow, LastPointOfASpanKeepsNoScheduleToReplay)
{
    // Told that no same-key point follows, a full schedule records no
    // model log and keeps nothing, so a same-key point after it
    // schedules in full instead of replaying an empty log. The
    // four-argument run always records and keeps.
    const auto native = SweepEngine::lower(makeBenchmarkSized("qft", 12));
    const DesignPoint base = DesignPoint::linear(4, 8);
    const ToolflowContext context(base);
    std::vector<DesignPoint> designs;
    for (int v = 0; v < 4; ++v) {
        DesignPoint d = base;
        d.hw.gammaPerS = 1.0 + v;
        designs.push_back(d);
    }
    ASSERT_EQ(scheduleKeyFor(*native, designs[0], {}),
              scheduleKeyFor(*native, designs[3], {}));

    StagedToolflow staged;
    const RunResult r0 =
        staged.run(*native, designs[0], context, {}, false);
    const RunResult r1 = staged.run(*native, designs[1], context, {});
    EXPECT_EQ(staged.stats().fullSchedules, 2u);
    EXPECT_EQ(staged.stats().replays, 0u);
    EXPECT_EQ(staged.stats().logsRecorded, 1u);

    // r1 kept its log: the next point replays it and, as the last of
    // its span, drops it, so the point after that runs full again.
    const RunResult r2 =
        staged.run(*native, designs[2], context, {}, false);
    EXPECT_EQ(staged.stats().replays, 1u);
    const RunResult r3 =
        staged.run(*native, designs[3], context, {}, true);
    EXPECT_EQ(staged.stats().fullSchedules, 3u);
    EXPECT_EQ(staged.stats().logsRecorded, 2u);

    const RunResult *got[] = {&r0, &r1, &r2, &r3};
    for (size_t i = 0; i < designs.size(); ++i)
        expectIdenticalResults(
            *got[i], runToolflow(*native, designs[i], context, {}),
            "point " + std::to_string(i));
}

TEST(SweepEngine, PropagatesJobErrorsAfterFinishingTheBatch)
{
    SweepEngine engine(2);
    std::vector<SweepJob> jobs;
    SweepJob bad;
    bad.application = "qft";
    bad.native = SweepEngine::lower(makeBenchmarkSized("qft", 16));
    bad.design = DesignPoint::linear(2, 4); // capacity 8 < 16 qubits
    jobs.push_back(bad);
    EXPECT_THROW(engine.run(jobs), ConfigError);
}

TEST(SweepEngine, RejectsJobsWithoutLoweredCircuit)
{
    SweepEngine engine(1);
    std::vector<SweepJob> jobs(1);
    jobs[0].application = "empty";
    jobs[0].design = DesignPoint::linear(2, 6);
    EXPECT_THROW(engine.run(jobs), ConfigError);
}

} // namespace
} // namespace qccd
