/**
 * @file
 * Automated design recommendation: the paper's Sections IX-X distill
 * sweeps into concrete guidance (trap capacity 15-25, topology matched
 * to the application, GS reordering, application-dependent gate
 * implementation). This module automates that distillation: given an
 * application and a candidate space, it runs the toolflow over every
 * candidate and ranks them by application fidelity (tie-broken by
 * runtime), returning the recommendation a device architect would act
 * on. The candidate space is built as a SweepPlan
 * (CandidateSpace::plan): the plan `qccd_explore --recommend` searches.
 */

#ifndef QCCD_CORE_RECOMMEND_HPP
#define QCCD_CORE_RECOMMEND_HPP

#include <string>
#include <vector>

#include "core/sweep_spec.hpp"

namespace qccd
{

class SweepEngine;

/** One evaluated candidate, ranked. */
struct RankedDesign
{
    DesignPoint design;
    RunResult result;

    /** Primary objective: log fidelity (higher is better). */
    double score() const { return result.sim.logFidelity; }

    /** Ranking order: higher score first, then shorter runtime. */
    static bool before(const RankedDesign &a, const RankedDesign &b)
    {
        if (a.score() != b.score())
            return a.score() > b.score();
        return a.result.totalTime() < b.result.totalTime();
    }
};

/** The candidate space to search. */
struct CandidateSpace
{
    std::vector<std::string> topologies{"linear:6", "grid:2x3"};
    std::vector<int> capacities{14, 18, 22, 26, 30, 34};
    std::vector<GateImpl> gates{GateImpl::AM1, GateImpl::AM2,
                                GateImpl::PM, GateImpl::FM};
    std::vector<ReorderMethod> reorders{ReorderMethod::GS,
                                        ReorderMethod::IS};

    /** Number of candidate design points in the space. */
    size_t size() const;

    /**
     * The candidates @p base's circuit fits, as a plan: one grid per
     * fitting topology x capacity (in list order), with gate x reorder
     * axes. Each point is @p base with those four fields overwritten,
     * so its other hardware knobs and run options reach every
     * candidate.
     *
     * @param base the lowered circuit (`native`, set), its row label
     *        and the knobs every candidate shares
     * @param engine answers the fit check from its shared contexts
     * @throws ConfigError when no candidate fits
     */
    SweepPlan plan(const PlannedPoint &base, SweepEngine &engine) const;
};

/**
 * Evaluate every candidate for @p circuit and return them ranked best
 * first (highest fidelity; runtime breaks ties). Candidates the circuit
 * does not fit on are skipped.
 *
 * Candidates are evaluated through a SweepEngine: the circuit is
 * lowered once, architecture state is shared between candidates, and
 * evaluation runs on @p jobs workers (<= 0: QCCD_JOBS env, default
 * hardware concurrency). The ranking is identical for any job count.
 *
 * @throws ConfigError when no candidate fits the application
 */
std::vector<RankedDesign> rankDesigns(const Circuit &circuit,
                                      const CandidateSpace &space,
                                      int jobs = 0);

/** Convenience: the best design for @p circuit over @p space. */
RankedDesign recommendDesign(const Circuit &circuit,
                             const CandidateSpace &space = {},
                             int jobs = 0);

/** Render the top @p show rows of a ranking as a table. */
std::string rankingTable(const std::vector<RankedDesign> &ranking,
                         size_t show = 10);

} // namespace qccd

#endif // QCCD_CORE_RECOMMEND_HPP
