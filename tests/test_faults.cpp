/**
 * @file
 * Fault-injection campaign for the failure-isolation contract
 * (common/faultpoint.hpp, SweepEngine FailurePolicy, SweepRunPolicy):
 * every registered fault site is armed in turn and the sweep must
 * survive it — the faulted point carries a classified outcome and a
 * diagnostic, every other point is byte-identical to a fault-free run.
 * Also covers the cooperative watchdog (common/deadline.hpp) through
 * the deterministic Deadline::expired() hook.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "arch/builders.hpp"
#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/faultpoint.hpp"
#include "compiler/scheduler.hpp"
#include "core/export.hpp"
#include "core/sweep_engine.hpp"
#include "core/sweep_spec.hpp"
#include "core/toolflow.hpp"

namespace qccd
{
namespace
{

/** Disarms injection after every test, pass or fail. */
class FaultsTest : public ::testing::Test
{
  protected:
    void TearDown() override { clearFaultInject(); }
};

/** qft at capacity 14 evicts and shuttles heavily, so one point hits
 *  every scheduler/router/shuttle site; capacity 18 is the survivor
 *  that must stay bit-identical. */
std::vector<PlannedPoint>
twoPoints()
{
    return parseSweepSpec(R"({
        "name": "faults",
        "sweeps": [{"apps": "qft", "capacity": [14, 18]}]
    })").points;
}

std::vector<SweepPoint>
runKeepGoing(const std::vector<PlannedPoint> &points,
             SweepRunStats *stats = nullptr, size_t max_errors = 0)
{
    SweepEngine engine(1); // one worker: the faulting point is fixed
    SweepSpecRunner runner(engine);
    SweepRunPolicy policy;
    policy.keepGoing = true;
    policy.maxErrors = max_errors;
    std::vector<SweepPoint> out;
    const SweepRunStats s = runner.run(
        points, 0, [&](const SweepPoint &p) { out.push_back(p); },
        policy);
    if (stats != nullptr)
        *stats = s;
    return out;
}

TEST_F(FaultsTest, EveryRegisteredSiteIsIsolatedUnderKeepGoing)
{
    // Fault-free reference for the surviving point.
    const std::vector<SweepPoint> clean = runKeepGoing(twoPoints());
    ASSERT_EQ(clean.size(), 2u);
    ASSERT_TRUE(clean[0].ok());
    ASSERT_TRUE(clean[1].ok());

    size_t covered = 0;
    size_t skipped = 0;
    for (const std::string &site : faultSiteNames()) {
        if (site == "export.row" || site == "engine.spawn" ||
            site.rfind("cache.", 0) == 0) {
            // export.row lives in the writer and engine.spawn fires
            // only with several workers (both covered below); the
            // cache sites never fire in a cacheless sweep and are
            // armed against a cached one in test_result_store.
            ++skipped;
            continue;
        }
        setFaultInjectSpec(site + "=1");
        SweepRunStats stats;
        const std::vector<SweepPoint> got =
            runKeepGoing(twoPoints(), &stats);
        clearFaultInject();

        ASSERT_EQ(got.size(), 2u) << site;
        EXPECT_EQ(stats.evaluated, 2u) << site;
        EXPECT_EQ(stats.failed, 1u) << site;
        EXPECT_FALSE(stats.aborted) << site;
        // The first hit of every site lands in point 0 (one worker).
        EXPECT_FALSE(got[0].ok()) << site;
        EXPECT_NE(got[0].error.find(site), std::string::npos) << site;
        ASSERT_TRUE(got[1].ok()) << site;
        // The survivor is byte-identical to the fault-free run.
        EXPECT_EQ(sweepCsvRow(got[1]), sweepCsvRow(clean[1])) << site;
        ++covered;
    }
    EXPECT_EQ(covered, faultSiteNames().size() - skipped);
    // export.row, engine.spawn and the four cache.* sites
    EXPECT_EQ(skipped, 6u);
}

TEST_F(FaultsTest, FailedThreadSpawnJoinsTheStartedWorkers)
{
    // A spawn that throws (EAGAIN at RLIMIT_NPROC, here injected before
    // the second thread) must not terminate the process: the worker
    // already started finishes and joins before the error leaves
    // run(), and the engine's next batch runs cleanly. Four schedule
    // keys make four spans, so four workers start four threads.
    const auto native = SweepEngine::lower(makeQft(16));
    std::vector<SweepJob> jobs;
    for (int cap : {8, 10, 12, 14})
        jobs.push_back({"qft", native, DesignPoint::linear(3, cap), {}});
    SweepEngine engine(4);
    setFaultInjectSpec("engine.spawn=2");
    EXPECT_THROW(engine.run(jobs), InternalError);
    clearFaultInject();
    EXPECT_EQ(engine.deltaStats().fullSchedules, 0u);

    const std::vector<SweepPoint> got = engine.run(jobs);
    SweepEngine serial(1);
    const std::vector<SweepPoint> want = serial.run(jobs);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(sweepCsvRow(got[i]), sweepCsvRow(want[i])) << i;
    EXPECT_EQ(engine.deltaStats().fullSchedules, jobs.size());
}

TEST_F(FaultsTest, ExportRowSiteFaultsTheWriter)
{
    const std::vector<SweepPoint> clean = runKeepGoing(twoPoints());
    std::ostringstream out;
    SweepRowWriter writer(out, ExportFormat::Csv);
    setFaultInjectSpec("export.row=1");
    EXPECT_THROW(writer.write(clean[0]), InternalError);
    clearFaultInject();
    writer.write(clean[0]); // the writer itself survives the fault
    EXPECT_EQ(writer.rowsWritten(), 1u);
}

TEST_F(FaultsTest, FaultKindsClassifyIntoOutcomes)
{
    const struct
    {
        const char *kind;
        PointOutcome outcome;
    } cases[] = {
        {"throw", PointOutcome::Error},
        {"alloc", PointOutcome::Error},
        {"config", PointOutcome::Infeasible},
        {"timeout", PointOutcome::Timeout},
    };
    for (const auto &c : cases) {
        setFaultInjectSpec(std::string("toolflow.run=1:") + c.kind);
        const std::vector<SweepPoint> got = runKeepGoing(twoPoints());
        clearFaultInject();
        ASSERT_EQ(got.size(), 2u) << c.kind;
        EXPECT_EQ(got[0].outcome, c.outcome) << c.kind;
        EXPECT_FALSE(got[0].error.empty()) << c.kind;
        EXPECT_TRUE(got[1].ok()) << c.kind;
    }
}

TEST_F(FaultsTest, RethrowPolicyIsStillTheDefault)
{
    setFaultInjectSpec("toolflow.run=1");
    SweepEngine engine(1);
    SweepSpecRunner runner(engine);
    EXPECT_THROW(
        runner.run(twoPoints(), 0, [](const SweepPoint &) {}),
        InternalError);
}

TEST_F(FaultsTest, MaxErrorsStopsTheSweepMidBatch)
{
    const std::vector<PlannedPoint> points = parseSweepSpec(R"({
        "name": "budget",
        "sweeps": [{"apps": "qft", "capacity": [14, 18, 22]}]
    })").points;
    setFaultInjectSpec("toolflow.run=1,toolflow.run=2");
    SweepRunStats stats;
    const std::vector<SweepPoint> got =
        runKeepGoing(points, &stats, 2);
    EXPECT_TRUE(stats.aborted);
    EXPECT_EQ(stats.evaluated, 2u);
    EXPECT_EQ(stats.failed, 2u);
    EXPECT_EQ(got.size(), 2u); // the third point was never launched
}

TEST_F(FaultsTest, BudgetTrippedOnTheLastPointIsNotAnAbort)
{
    setFaultInjectSpec("toolflow.run=2");
    SweepRunStats stats;
    const std::vector<SweepPoint> got =
        runKeepGoing(twoPoints(), &stats, 1);
    EXPECT_FALSE(stats.aborted); // nothing was cut short
    EXPECT_EQ(stats.evaluated, 2u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_TRUE(got[0].ok());
    EXPECT_FALSE(got[1].ok());
}

TEST_F(FaultsTest, UnloadableCircuitIsAPointFailureNotASweepFailure)
{
    std::vector<PlannedPoint> points = twoPoints();
    points[0].application = "ghost";
    points[0].qasmPath = "/nonexistent/ghost.qasm";
    SweepRunStats stats;
    const std::vector<SweepPoint> got = runKeepGoing(points, &stats);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].outcome, PointOutcome::Infeasible);
    EXPECT_EQ(got[0].application, "ghost");
    EXPECT_FALSE(got[0].error.empty());
    EXPECT_TRUE(got[1].ok());
    EXPECT_EQ(stats.failed, 1u);
}

TEST_F(FaultsTest, SpecGrammarRejectsTyposLoudly)
{
    EXPECT_THROW(setFaultInjectSpec("nope=1"), ConfigError);
    EXPECT_THROW(setFaultInjectSpec("toolflow.run"), ConfigError);
    EXPECT_THROW(setFaultInjectSpec("toolflow.run=0"), ConfigError);
    EXPECT_THROW(setFaultInjectSpec("toolflow.run=x"), ConfigError);
    EXPECT_THROW(setFaultInjectSpec("toolflow.run=1:weird"),
                 ConfigError);
    EXPECT_THROW(setFaultInjectSpec(""), ConfigError);
}

TEST_F(FaultsTest, ClearDisarmsAndResetsCounters)
{
    setFaultInjectSpec("toolflow.run=1");
    clearFaultInject();
    const std::vector<SweepPoint> got = runKeepGoing(twoPoints());
    EXPECT_TRUE(got[0].ok());
    EXPECT_TRUE(got[1].ok());
}

// ---------------------------------------------------------------------
// Watchdog deadlines
// ---------------------------------------------------------------------

TEST_F(FaultsTest, QueueFaultLeavesTheStagedPlanCacheSound)
{
    // scheduler.build_queues fires in every run's setup, after the
    // StagedToolflow has built and cached the circuit's plan. The
    // faulted point fails; the next point on the same evaluator and
    // circuit reuses that plan and must equal the scalar run.
    const Circuit native = decomposeToNative(makeQft(16));
    const DesignPoint dp = DesignPoint::linear(3, 8);
    const ToolflowContext context(dp);
    RunOptions options;
    options.decomposeRuntime = true;

    StagedToolflow staged;
    setFaultInjectSpec("scheduler.build_queues=1");
    EXPECT_THROW(staged.run(native, dp, context, options), InternalError);
    const RunResult got = staged.run(native, dp, context, options);
    clearFaultInject();

    const RunResult want = runToolflow(native, dp, context, options);
    EXPECT_EQ(got.sim.makespan, want.sim.makespan);
    EXPECT_EQ(got.sim.logFidelity, want.sim.logFidelity);
    EXPECT_EQ(got.sim.maxChainEnergy, want.sim.maxChainEnergy);
    EXPECT_EQ(got.computeOnlyTime, want.computeOnlyTime);
    EXPECT_EQ(got.sim.counts.shuttles, want.sim.counts.shuttles);
    EXPECT_EQ(got.sim.counts.evictions, want.sim.counts.evictions);
    EXPECT_GT(got.sim.counts.shuttles, 0);
    EXPECT_EQ(staged.stats().plansBuilt, 1u);
    EXPECT_EQ(staged.stats().fullSchedules, 1u);
}

TEST_F(FaultsTest, FullScheduleThrowingMidSpanLeavesTheNextPointFull)
{
    // One span of five points that differ only in gamma. The first
    // point's full schedule throws part-way through, after recording
    // some of its model log. The next point must schedule in full,
    // not replay that partial log; the rest replay the new one.
    const auto native = SweepEngine::lower(makeQft(16));
    std::vector<SweepJob> jobs;
    for (int v = 0; v < 5; ++v) {
        SweepJob job{"qft", native, DesignPoint::linear(3, 8), {}};
        job.design.hw.gammaPerS = 1.0 + 0.5 * v;
        jobs.push_back(std::move(job));
    }
    SweepEngine engine(1);
    setFaultInjectSpec("scheduler.pop=40");
    const std::vector<SweepPoint> got =
        engine.run(jobs, FailurePolicy::Isolate);
    clearFaultInject();

    ASSERT_EQ(got.size(), jobs.size());
    EXPECT_FALSE(got[0].ok());
    for (size_t i = 1; i < jobs.size(); ++i) {
        ASSERT_TRUE(got[i].ok()) << i;
        SweepPoint want = got[i];
        want.result = runToolflow(*native, jobs[i].design,
                                  ToolflowContext(jobs[i].design), {});
        EXPECT_EQ(sweepCsvRow(got[i]), sweepCsvRow(want)) << i;
    }
    EXPECT_EQ(engine.deltaStats().fullSchedules, 1u);
    EXPECT_EQ(engine.deltaStats().replays, 3u);
    EXPECT_EQ(engine.deltaStats().logsRecorded, 1u);
}

TEST(DeadlineTest, DefaultIsUnarmedAndNeverThrows)
{
    const Deadline deadline;
    EXPECT_FALSE(deadline.armed());
    EXPECT_NO_THROW(deadline.check("anywhere"));
}

TEST(DeadlineTest, ExpiredDeadlineThrowsWithTheStageName)
{
    const Deadline deadline = Deadline::expired();
    EXPECT_TRUE(deadline.armed());
    EXPECT_TRUE(deadline.exceededNow());
    try {
        deadline.check("scheduler.pop");
        FAIL() << "expected TimeoutError";
    } catch (const TimeoutError &err) {
        EXPECT_NE(std::string(err.what()).find("scheduler.pop"),
                  std::string::npos);
    }
}

TEST(DeadlineTest, NegativeBudgetIsRejected)
{
    EXPECT_THROW(Deadline::afterMs(-1), ConfigError);
}

TEST(DeadlineTest, SchedulerHonorsAnExpiredDeadlineDeterministically)
{
    const Circuit native = decomposeToNative(makeQft(16));
    const Topology topo = makeLinear(6, 22);
    const HardwareParams hw;
    ScheduleOptions options;
    options.collectTrace = false;
    options.deadline = Deadline::expired();
    Scheduler sched(native, topo, hw, options);
    EXPECT_THROW(sched.run(), TimeoutError);
}

TEST(DeadlineTest, GenerousDeadlineDoesNotPerturbResults)
{
    const Circuit native = decomposeToNative(makeQft(16));
    const Topology topo = makeLinear(6, 22);
    const HardwareParams hw;
    ScheduleOptions plain;
    plain.collectTrace = false;
    ScheduleOptions guarded = plain;
    guarded.deadline = Deadline::afterMs(60'000);
    const auto a = Scheduler(native, topo, hw, plain).run();
    const auto b = Scheduler(native, topo, hw, guarded).run();
    EXPECT_EQ(a.metrics.makespan, b.metrics.makespan);
    EXPECT_EQ(a.metrics.counts.shuttles, b.metrics.counts.shuttles);
}

} // namespace
} // namespace qccd
