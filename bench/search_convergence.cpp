/**
 * @file
 * google-benchmark convergence bench for the surrogate-guided search:
 * wall time of a default-budget search over a fig7-shaped space, with
 * counters for the headline economics — points really evaluated vs.
 * the exhaustive count, the Spearman rank correlation between the
 * analytic surrogate's ordering and the simulator's, and whether the
 * search found the exhaustive optimum. scripts/run_benches.sh lifts
 * the search_* counters into BENCH_SUMMARY.json.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "circuit/stats.hpp"
#include "core/cost_model.hpp"
#include "core/search.hpp"
#include "core/sweep_engine.hpp"
#include "core/sweep_spec.hpp"

namespace
{

using namespace qccd;

/** A fig7-shaped space: apps x device families x capacities x gates. */
constexpr const char *kSpecText = R"({
  "name": "search_convergence",
  "sweeps": [{
    "apps": ["bv", "adder", "qft"],
    "topology": ["linear:6", "ring:6", "grid:2x3"],
    "capacity": [14, 18, 22, 26],
    "gate": ["FM", "AM2"]
  }]
})";

/** Rank of every index under @p better (competition ranking; ties
 *  broken by index, matching the search's deterministic order). */
template <typename Less>
std::vector<size_t>
ranksUnder(size_t n, Less better)
{
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), better);
    std::vector<size_t> rank(n);
    for (size_t r = 0; r < n; ++r)
        rank[order[r]] = r;
    return rank;
}

void
BM_SearchConvergence(benchmark::State &state)
{
    const SweepPlan plan =
        parseSweepPlan(kSpecText, "search_convergence");
    SweepEngine engine;
    SweepSpecRunner runner(engine);
    const size_t n = plan.size();

    // Exhaustive reference (outside the timing loop).
    std::vector<SweepPoint> exhaustive;
    exhaustive.reserve(n);
    runner.run(plan, indexRange(0, n),
               [&](size_t, const SweepPoint &point) {
                   exhaustive.push_back(point);
               });
    size_t best = 0;
    for (size_t i = 1; i < exhaustive.size(); ++i) {
        const double fid = exhaustive[i].result.sim.logFidelity;
        const double at = exhaustive[best].result.sim.logFidelity;
        if (fid > at ||
            (fid == at && exhaustive[i].result.totalTime() <
                              exhaustive[best].result.totalTime()))
            best = i;
    }

    // Analytic priors for the rank-correlation counter.
    const AnalyticCostModel model;
    std::vector<CostPrediction> priors(n);
    for (size_t i = 0; i < n; ++i) {
        const PlannedPoint point = plan.point(i);
        priors[i] = model.predict(
            point.design, computeStats(*runner.circuitFor(point)),
            extractTopologyFeatures(
                engine.context(point.design)->topology()));
    }
    const std::vector<size_t> predictedRank =
        ranksUnder(n, [&](size_t a, size_t b) {
            if (priors[a].logFidelity != priors[b].logFidelity)
                return priors[a].logFidelity > priors[b].logFidelity;
            if (priors[a].timeUs != priors[b].timeUs)
                return priors[a].timeUs < priors[b].timeUs;
            return a < b;
        });
    const std::vector<size_t> realRank =
        ranksUnder(n, [&](size_t a, size_t b) {
            const double fa = exhaustive[a].result.sim.logFidelity;
            const double fb = exhaustive[b].result.sim.logFidelity;
            if (fa != fb)
                return fa > fb;
            const double ta = exhaustive[a].result.totalTime();
            const double tb = exhaustive[b].result.totalTime();
            if (ta != tb)
                return ta < tb;
            return a < b;
        });
    double sumSq = 0;
    for (size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(predictedRank[i]) -
                         static_cast<double>(realRank[i]);
        sumSq += d * d;
    }
    const auto count = static_cast<double>(n);
    const double spearman =
        n < 2 ? 1.0
              : 1.0 - 6.0 * sumSq / (count * (count * count - 1.0));

    size_t evaluated = 0;
    bool foundOptimum = false;
    for (auto _ : state) {
        SearchEngine search(engine);
        const SearchOutcome outcome = search.run(plan, {});
        evaluated = outcome.stats.evaluated;
        foundOptimum =
            outcome.haveWinner && outcome.winnerIndex == best;
        benchmark::DoNotOptimize(outcome.winnerIndex);
    }

    state.counters["search_points_evaluated"] =
        static_cast<double>(evaluated);
    state.counters["search_exhaustive_points"] =
        static_cast<double>(n);
    state.counters["search_rank_correlation"] = spearman;
    state.counters["search_found_optimum"] = foundOptimum ? 1.0 : 0.0;
}
BENCHMARK(BM_SearchConvergence)->Unit(benchmark::kMillisecond);

} // namespace
