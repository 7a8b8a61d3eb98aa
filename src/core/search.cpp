#include "core/search.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/sweep_engine.hpp"
#include "core/toolflow.hpp"

namespace qccd
{

namespace
{

/** Ranking score: corrected prediction, worst-ranked when the prior
 *  could not be computed (broken points surface their error if the
 *  budget ever reaches them). */
struct Score
{
    double logFidelity = -std::numeric_limits<double>::infinity();
    double timeUs = std::numeric_limits<double>::infinity();
};

/** Deterministic total order: predicted log-fidelity descending,
 *  predicted time ascending, spec index ascending. */
bool
better(const Score &a, size_t ia, const Score &b, size_t ib)
{
    if (a.logFidelity != b.logFidelity)
        return a.logFidelity > b.logFidelity;
    if (a.timeUs != b.timeUs)
        return a.timeUs < b.timeUs;
    return ia < ib;
}

} // namespace

SearchEngine::SearchEngine(SweepEngine &engine)
    : engine_(engine), runner_(engine)
{
}

SearchOutcome
SearchEngine::run(const SweepPlan &plan, const SearchOptions &options)
{
    const size_t n = plan.size();
    fatalUnless(n > 0, "search space is empty");

    SearchOutcome out;
    out.stats.space = n;
    const size_t budget =
        options.budget == 0 ? std::max<size_t>(1, n / 4)
                            : std::min(options.budget, n);
    out.stats.budget = budget;
    const auto eta = static_cast<size_t>(std::max(2, options.eta));

    std::vector<char> evaluated(n, 0);
    std::vector<CalibratedCostModel::Sample> samples;
    size_t spent = 0;

    // One engine batch per rung, ascending by spec index: the engine
    // groups the batch by schedule key, so sibling promotions share
    // schedules via the replay fast path, and emission order matches
    // the exhaustive sweep's for the same points.
    const auto evaluate = [&](std::vector<size_t> indices) {
        std::sort(indices.begin(), indices.end());
        const SweepRunStats run = runner_.run(
            plan, indices,
            [&](size_t index, const SweepPoint &point) {
                evaluated[index] = 1;
                out.evaluations.push_back({index, point});
            },
            options.policy, std::max<size_t>(1, indices.size()));
        spent += run.evaluated;
        out.stats.run.evaluated += run.evaluated;
        out.stats.run.failed += run.failed;
        out.stats.run.aborted =
            out.stats.run.aborted || run.aborted;
        out.stats.run.cacheHits += run.cacheHits;
        out.stats.run.cacheDivergent += run.cacheDivergent;
        out.stats.run.fullSchedules += run.fullSchedules;
        out.stats.run.replays += run.replays;
    };

    if (budget >= n) {
        // The budget covers the space: this is an exhaustive sweep in
        // one batch; no surrogate needed.
        evaluate(indexRange(0, n));
    } else {
        // Analytic priors for every candidate. Feature extraction is
        // memoized per circuit and per architecture; points whose
        // inputs fail to resolve rank last under failure isolation
        // (and fail the search eagerly without it, like a sweep).
        const AnalyticCostModel analytic;
        std::map<const Circuit *, CircuitStats> statsCache;
        std::map<std::pair<std::string, int>, TopologyFeatures>
            featureCache;
        std::vector<CostPrediction> priors(n);
        std::vector<char> scored(n, 0);
        for (size_t i = 0; i < n; ++i) {
            const PlannedPoint point = plan.point(i);
            try {
                const std::shared_ptr<const Circuit> circuit =
                    runner_.circuitFor(point);
                auto statsIt = statsCache.find(circuit.get());
                if (statsIt == statsCache.end())
                    statsIt = statsCache
                                  .emplace(circuit.get(),
                                           computeStats(*circuit))
                                  .first;
                const std::pair<std::string, int> archKey{
                    point.design.topologySpec,
                    point.design.trapCapacity};
                auto featIt = featureCache.find(archKey);
                if (featIt == featureCache.end())
                    featIt =
                        featureCache
                            .emplace(archKey,
                                     extractTopologyFeatures(
                                         engine_.context(point.design)
                                             ->topology()))
                            .first;
                priors[i] = analytic.predict(
                    point.design, statsIt->second, featIt->second);
                scored[i] = 1;
            } catch (...) {
                if (!options.policy.keepGoing)
                    throw;
            }
        }

        CalibratedCostModel model; // identity until first fit
        const auto refit = [&]() {
            samples.clear();
            for (const SearchEvaluation &ev : out.evaluations) {
                if (!ev.point.ok() || !scored[ev.index])
                    continue;
                samples.push_back(
                    {priors[ev.index],
                     ev.point.result.sim.logFidelity,
                     ev.point.result.totalTime()});
            }
            model.fit(samples);
        };

        // Stage 1: stratified calibration sample (seeded, one index
        // per contiguous stratum — deterministic and duplicate-free).
        size_t calibration = 0;
        if (budget >= 8)
            calibration = std::min<size_t>(budget / 3, 16);
        if (calibration > 0) {
            Rng rng(options.seed);
            std::vector<size_t> pick;
            pick.reserve(calibration);
            for (size_t j = 0; j < calibration; ++j) {
                const size_t lo = n * j / calibration;
                const size_t hi = n * (j + 1) / calibration;
                pick.push_back(lo + rng.nextBelow(hi - lo));
            }
            evaluate(std::move(pick));
            out.stats.calibration = spent;
            refit();
        }

        // Stage 2: successive halving down the corrected ranking.
        while (spent < budget && !out.stats.run.aborted) {
            const size_t remaining = budget - spent;
            size_t rung = remaining - remaining / eta;
            std::vector<size_t> frontier;
            frontier.reserve(n - spent);
            for (size_t i = 0; i < n; ++i)
                if (!evaluated[i])
                    frontier.push_back(i);
            if (frontier.empty())
                break;
            rung = std::min(rung, frontier.size());
            std::vector<Score> scores(n);
            for (const size_t i : frontier) {
                if (!scored[i])
                    continue;
                const CostPrediction c = model.correct(priors[i]);
                scores[i] = {c.logFidelity, c.timeUs};
            }
            std::partial_sort(
                frontier.begin(),
                frontier.begin() + static_cast<long>(rung),
                frontier.end(), [&](size_t a, size_t b) {
                    return better(scores[a], a, scores[b], b);
                });
            frontier.resize(rung);
            evaluate(std::move(frontier));
            ++out.stats.rungs;
            refit();
        }
    }

    out.stats.evaluated = spent;

    // The audit list reads like the exhaustive CSV: ascending index.
    std::sort(out.evaluations.begin(), out.evaluations.end(),
              [](const SearchEvaluation &a, const SearchEvaluation &b) {
                  return a.index < b.index;
              });

    // Winner: best real result, the sweep objective's exact order
    // (max log-fidelity, then min time, then min spec index — the
    // index an exhaustive argmax scan would keep).
    for (const SearchEvaluation &ev : out.evaluations) {
        if (!ev.point.ok())
            continue;
        const double fid = ev.point.result.sim.logFidelity;
        const double time = ev.point.result.totalTime();
        if (!out.haveWinner ||
            fid > out.winner.result.sim.logFidelity ||
            (fid == out.winner.result.sim.logFidelity &&
             time < out.winner.result.totalTime())) {
            out.haveWinner = true;
            out.winnerIndex = ev.index;
            out.winner = ev.point;
        }
    }
    return out;
}

} // namespace qccd
