/**
 * @file
 * Tests for the surrogate-guided search (core/search.hpp). The two
 * load-bearing guarantees:
 *
 *  1. Rediscovery: on every committed golden scenario the search
 *     returns the same best design point as the exhaustive sweep
 *     while really evaluating at most a quarter of the space (the
 *     PR's headline acceptance, asserted per spec).
 *
 *  2. Audit byte-identity: every point the search really evaluates
 *     produces a row byte-identical to the exhaustive sweep's row at
 *     the same spec index (pinned on the goldens and on a 30-grid
 *     random-spec fuzz), and the whole outcome is bit-identical for
 *     any worker count and any rerun with the same seed.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/export.hpp"
#include "core/search.hpp"
#include "core/sweep_engine.hpp"
#include "core/sweep_spec.hpp"

namespace qccd
{
namespace
{

std::string
repoPath(const std::string &relative)
{
    return std::string(QCCD_SEARCH_TEST_SOURCE_DIR) + "/" + relative;
}

const std::vector<std::string> &
goldenSpecs()
{
    static const std::vector<std::string> specs = {
        "ablation_buffer.sweep",      "ablation_cooling.sweep",
        "ablation_heating.sweep",     "custom_devices.sweep",
        "fig6.sweep",                 "fig7.sweep",
        "fig8.sweep",                 "mixed_apps.sweep",
        "sensitivity_fidelity.sweep", "topology_families.sweep"};
    return specs;
}

/** Evaluate every point of @p plan in order (the exhaustive sweep). */
std::vector<SweepPoint>
runExhaustive(const SweepPlan &plan)
{
    SweepEngine engine;
    SweepSpecRunner runner(engine);
    std::vector<SweepPoint> results;
    runner.run(plan, indexRange(0, plan.size()),
               [&](size_t, const SweepPoint &point) {
                   results.push_back(point);
               });
    return results;
}

/** Index the exhaustive argmax keeps: max log-fidelity, then min
 *  time, then first in spec order. */
size_t
exhaustiveBest(const std::vector<SweepPoint> &results)
{
    size_t best = 0;
    for (size_t i = 1; i < results.size(); ++i) {
        const double fid = results[i].result.sim.logFidelity;
        const double bestFid = results[best].result.sim.logFidelity;
        if (fid > bestFid ||
            (fid == bestFid && results[i].result.totalTime() <
                                   results[best].result.totalTime()))
            best = i;
    }
    return best;
}

SearchOutcome
runSearch(const SweepPlan &plan, const SearchOptions &options = {})
{
    SweepEngine engine;
    SearchEngine search(engine);
    SearchOptions resolved = options;
    if (resolved.budget == 0)
        resolved.budget = plan.search.budget;
    return search.run(plan, resolved);
}

// ---------------------------------------------------------------------
// Golden rediscovery: the headline acceptance, one spec at a time
// ---------------------------------------------------------------------

TEST(SearchGolden, RediscoversExhaustiveOptimumWithinQuarterBudget)
{
    for (const std::string &spec : goldenSpecs()) {
        SCOPED_TRACE(spec);
        const SweepPlan plan =
            parseSweepPlanFile(repoPath("examples/sweeps/" + spec));
        const std::vector<SweepPoint> exhaustive = runExhaustive(plan);
        const size_t best = exhaustiveBest(exhaustive);

        const SearchOutcome outcome = runSearch(plan);
        ASSERT_TRUE(outcome.haveWinner);

        // <= 25% of the expanded points really evaluated.
        EXPECT_LE(outcome.stats.evaluated * 4, outcome.stats.space);
        EXPECT_EQ(outcome.stats.space, exhaustive.size());

        // Same best design point, byte for byte.
        EXPECT_EQ(outcome.winnerIndex, best);
        EXPECT_EQ(sweepCsvRow(outcome.winner),
                  sweepCsvRow(exhaustive[best]));

        // Every audited evaluation matches the exhaustive row at its
        // index, byte for byte.
        for (const SearchEvaluation &ev : outcome.evaluations) {
            ASSERT_LT(ev.index, exhaustive.size());
            EXPECT_TRUE(ev.point.ok());
            EXPECT_EQ(sweepCsvRow(ev.point),
                      sweepCsvRow(exhaustive[ev.index]))
                << "row mismatch at spec index " << ev.index;
        }
    }
}

// ---------------------------------------------------------------------
// Determinism: worker count and seed
// ---------------------------------------------------------------------

/** Flatten an outcome for bitwise comparison. */
std::string
outcomeDigest(const SearchOutcome &outcome)
{
    std::ostringstream out;
    out << outcome.winnerIndex << '|'
        << sweepCsvRow(outcome.winner) << '\n';
    for (const SearchEvaluation &ev : outcome.evaluations)
        out << ev.index << '|' << sweepCsvRow(ev.point) << '\n';
    out << outcome.stats.evaluated << '/' << outcome.stats.budget
        << '/' << outcome.stats.calibration << '/'
        << outcome.stats.rungs;
    return out.str();
}

TEST(SearchDeterminism, IdenticalForAnyWorkerCount)
{
    const SweepPlan plan =
        parseSweepPlanFile(repoPath("examples/sweeps/fig7.sweep"));
    std::vector<std::string> digests;
    for (const int jobs : {1, 3, 7}) {
        SweepEngine engine(jobs);
        SearchEngine search(engine);
        digests.push_back(
            outcomeDigest(search.run(plan, {})));
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
}

TEST(SearchDeterminism, IdenticalForPinnedSeedRerun)
{
    const SweepPlan plan = parseSweepPlanFile(
        repoPath("examples/sweeps/sensitivity_fidelity.sweep"));
    SearchOptions options;
    options.seed = 1234;
    const std::string first = outcomeDigest(runSearch(plan, options));
    const std::string second = outcomeDigest(runSearch(plan, options));
    EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------
// Budget semantics
// ---------------------------------------------------------------------

TEST(SearchBudget, BudgetCoveringSpaceIsExhaustive)
{
    const SweepPlan plan = parseSweepPlanFile(
        repoPath("examples/sweeps/custom_devices.sweep"));
    const std::vector<SweepPoint> exhaustive = runExhaustive(plan);

    SearchOptions options;
    options.budget = exhaustive.size() + 100; // capped at the space
    const SearchOutcome outcome = runSearch(plan, options);
    EXPECT_EQ(outcome.stats.budget, exhaustive.size());
    ASSERT_EQ(outcome.evaluations.size(), exhaustive.size());
    for (size_t i = 0; i < exhaustive.size(); ++i) {
        EXPECT_EQ(outcome.evaluations[i].index, i);
        EXPECT_EQ(sweepCsvRow(outcome.evaluations[i].point),
                  sweepCsvRow(exhaustive[i]));
    }
    EXPECT_EQ(outcome.winnerIndex, exhaustiveBest(exhaustive));
}

TEST(SearchBudget, ExplicitBudgetIsRespected)
{
    const SweepPlan plan =
        parseSweepPlanFile(repoPath("examples/sweeps/fig6.sweep"));
    SearchOptions options;
    options.budget = 5;
    const SearchOutcome outcome = runSearch(plan, options);
    EXPECT_EQ(outcome.stats.budget, 5u);
    EXPECT_EQ(outcome.stats.evaluated, 5u);
    EXPECT_EQ(outcome.evaluations.size(), 5u);
    EXPECT_TRUE(outcome.haveWinner);
}

// ---------------------------------------------------------------------
// Random-grid fuzz: audit rows are --sweep rows, always
// ---------------------------------------------------------------------

/** Draw a small random spec over cheap axes (committed circuits and
 *  fast builtins), exercising the parser path end to end. */
std::string
randomSpecText(Rng &rng)
{
    const std::vector<std::string> apps = {
        "\"bv\"", "\"adder\"", "\"qaoa\"",
        "\"qasm:" + repoPath("examples/circuits/bell.qasm") + "\"",
        "\"qasm:" + repoPath("examples/circuits/qft8.qasm") + "\""};
    const std::vector<std::string> topologies = {
        "\"linear:6\"", "\"grid:2x3\"", "\"ring:6\""};
    const std::vector<std::string> gates = {"\"FM\"", "\"AM2\""};
    const std::vector<int> capacities = {14, 18, 22, 26, 30};

    std::ostringstream spec;
    spec << "{\"name\": \"fuzz\", \"sweeps\": [{";
    spec << "\"apps\": [";
    const int napps = rng.nextInt(1, 2);
    for (int i = 0; i < napps; ++i)
        spec << (i ? ", " : "")
             << apps[static_cast<size_t>(rng.nextInt(
                    0, static_cast<int>(apps.size()) - 1))];
    spec << "], \"topology\": "
         << topologies[static_cast<size_t>(rng.nextInt(
                0, static_cast<int>(topologies.size()) - 1))];
    spec << ", \"capacity\": [";
    const int ncaps = rng.nextInt(2, 4);
    for (int i = 0; i < ncaps; ++i)
        spec << (i ? ", " : "")
             << capacities[static_cast<size_t>(rng.nextInt(
                    0, static_cast<int>(capacities.size()) - 1))];
    spec << "], \"gate\": "
         << gates[static_cast<size_t>(rng.nextInt(
                0, static_cast<int>(gates.size()) - 1))];
    if (rng.nextBool())
        spec << ", \"buffer\": " << rng.nextInt(0, 4);
    spec << "}]}";
    return spec.str();
}

TEST(SearchFuzz, AuditRowsByteIdenticalToSweepRowsOn30RandomGrids)
{
    Rng rng(0xD351'6E5E'A2C8'0001ULL);
    for (int trial = 0; trial < 30; ++trial) {
        const std::string text = randomSpecText(rng);
        SCOPED_TRACE(text);
        const SweepPlan plan = parseSweepPlan(text, "fuzz");
        const std::vector<SweepPoint> exhaustive = runExhaustive(plan);

        SearchOptions options;
        options.seed = rng.next();
        options.budget =
            static_cast<size_t>(rng.nextInt(
                1, static_cast<int>(exhaustive.size())));
        const SearchOutcome outcome = runSearch(plan, options);

        ASSERT_TRUE(outcome.haveWinner);
        EXPECT_EQ(outcome.stats.evaluated, outcome.stats.budget);
        for (const SearchEvaluation &ev : outcome.evaluations) {
            ASSERT_LT(ev.index, exhaustive.size());
            EXPECT_EQ(sweepCsvRow(ev.point),
                      sweepCsvRow(exhaustive[ev.index]))
                << "audit row differs from --sweep row at index "
                << ev.index;
        }
        // The winner is the best among what was really evaluated.
        for (const SearchEvaluation &ev : outcome.evaluations) {
            if (!ev.point.ok())
                continue;
            EXPECT_LE(ev.point.result.sim.logFidelity,
                      outcome.winner.result.sim.logFidelity);
        }
    }
}

// ---------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------

TEST(SearchErrors, EmptySpaceThrows)
{
    const SweepPlan empty;
    SweepEngine engine(1);
    SearchEngine search(engine);
    EXPECT_THROW(search.run(empty, {}), ConfigError);
}

} // namespace
} // namespace qccd
