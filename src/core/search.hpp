/**
 * @file
 * Surrogate-guided design-space search (paper Sections IX-X turned
 * into an optimizer): find the sweep optimum while really evaluating
 * only a fraction of the declared space.
 *
 * The exhaustive sweeps stop scaling around 10^4 points; the spaces a
 * SweepPlan can declare (arbitrary `.topo` graphs x capacities x 17
 * model knobs) are far larger. SearchEngine decodes plan points on
 * demand (SweepGrid::point decodes any index), scores every
 * candidate with a cheap cost model (core/cost_model.hpp), and spends
 * its real-evaluation budget successively-halving down the predicted
 * frontier. Real evaluations run through the existing
 * SweepSpecRunner -> SweepEngine -> StagedToolflow -> ResultStore
 * stack: each rung hands its sorted index list to the runner as one
 * engine batch, so schedule-key grouping and the replay fast path
 * apply, and rows are byte-identical to what the exhaustive sweep
 * would emit for the same points (that identity is the audit contract
 * `--search-report` exposes and tests/test_search.cpp pins).
 *
 * Determinism: ranking is pure (surrogate scores, ties broken by spec
 * index), calibration sampling is seeded (SearchOptions::seed), and
 * evaluation inherits the engine's any-worker-count bit-identity — so
 * a search's winner, audit rows, and counters are identical for any
 * --jobs and any rerun with the same seed.
 *
 * Search procedure (budget B over a space of N points):
 *  1. When the budget affords it, evaluate a small stratified sample
 *     of the space (deterministic seed) and fit the calibrated
 *     surrogate's corrections on the results.
 *  2. Rank all unevaluated candidates by corrected prediction
 *     (log-fidelity desc, predicted time asc, index asc).
 *  3. Promote the top `remaining - remaining/eta` candidates to real
 *     evaluation, refit on everything measured so far, re-rank, and
 *     repeat with the shrunk remainder until B points have run.
 *  4. The winner is the best REAL result (max log-fidelity, then min
 *     time, then min index) — the simulator stays the oracle; the
 *     surrogate only chooses where to look.
 */

#ifndef QCCD_CORE_SEARCH_HPP
#define QCCD_CORE_SEARCH_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cost_model.hpp"
#include "core/sweep_spec.hpp"

namespace qccd
{

class SweepEngine;

/** How a search run is configured (spec "search" block + CLI flags). */
struct SearchOptions
{
    /** Real-evaluation budget; 0 = max(1, space/4) — the headline
     *  quarter of the exhaustive cost. Capped at the space size. */
    size_t budget = 0;

    /** Stratified calibration-sampling seed. */
    uint64_t seed = SearchSpecOptions::kDefaultSearchSeed;

    /** Successive-halving rate (>= 2). */
    int eta = 2;

    /** Failure isolation and result-store plumbing for the real
     *  evaluations (same semantics as sweeps). */
    SweepRunPolicy policy;
};

/** One real evaluation the search performed. */
struct SearchEvaluation
{
    /** Absolute spec index (== the exhaustive CSV row position). */
    size_t index = 0;

    SweepPoint point;
};

/** Counters of one search run (the CLI's greppable `search:` line). */
struct SearchStats
{
    size_t space = 0;       ///< declared points
    size_t budget = 0;      ///< resolved real-evaluation budget
    size_t evaluated = 0;   ///< points really evaluated
    size_t calibration = 0; ///< evaluations spent on the seeded sample
    size_t rungs = 0;       ///< successive-halving promotions
    SweepRunStats run;      ///< cache/staged counters (aggregated)
};

/** What a search run produced. */
struct SearchOutcome
{
    bool haveWinner = false;
    size_t winnerIndex = 0;
    SweepPoint winner;

    /** Every real evaluation, ascending by spec index (the audit CSV;
     *  failed points carry their outcome and produce no row). */
    std::vector<SearchEvaluation> evaluations;

    SearchStats stats;
};

/** Successive-halving searcher over a SweepEngine (see file docs). */
class SearchEngine
{
  public:
    explicit SearchEngine(SweepEngine &engine);

    /**
     * Search the points of @p plan under @p options.
     *
     * Throws on the first evaluation failure unless
     * options.policy.keepGoing is set (failed points then consume
     * budget and are reported in evaluations). Throws ConfigError if
     * the plan is empty.
     */
    SearchOutcome run(const SweepPlan &plan, const SearchOptions &options);

  private:
    SweepEngine &engine_;
    SweepSpecRunner runner_;
};

} // namespace qccd

#endif // QCCD_CORE_SEARCH_HPP
