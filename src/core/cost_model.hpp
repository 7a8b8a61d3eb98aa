/**
 * @file
 * Surrogate cost models for design-space search (core/search.hpp).
 *
 * The surrogate predicts the two objectives a sweep measures — log
 * fidelity and makespan — from a design point, the application's
 * CircuitStats, and a TopologyFeatures digest of the device graph,
 * WITHOUT running the simulator. The search layer ranks the declared
 * space by these predictions and spends its real-evaluation budget on
 * the predicted frontier only; the simulator stays the oracle that
 * decides the winner (the Halide-autoscheduler shape: a cheap model
 * ranks, the expensive one decides).
 *
 * Two stages make it up:
 *
 *  - AnalyticCostModel: closed-form over the same physical models the
 *    simulator runs (ModelTables' per-knob fidelity terms, the MS-gate
 *    duration at the packed chain length, heating from the estimated
 *    shuttle traffic). Deterministic, stateless, no tuning inputs.
 *
 *  - CalibratedCostModel: corrects those analytic predictions with
 *    per-objective least-squares affine fits against real runToolflow
 *    samples (log-fidelity and log-runtime). Fits are deterministic
 *    (fixed accumulation order) and monotone by construction — slopes
 *    are clamped positive, so calibration refines magnitudes but can
 *    never invert the analytic ranking. That guard is what lets the
 *    golden-rediscovery acceptance hold for any sample set.
 *
 * Predictions are heuristic: absolute values can be off by large
 * factors on communication-heavy circuits (the estimator deliberately
 * over-counts shuttling rather than model the scheduler). What the
 * search relies on — and what tests/test_search.cpp pins — is that the
 * predicted ORDER surfaces the true optimum within a quarter-budget
 * frontier on every committed golden scenario.
 */

#ifndef QCCD_CORE_COST_MODEL_HPP
#define QCCD_CORE_COST_MODEL_HPP

#include <cstddef>
#include <vector>

#include "circuit/stats.hpp"
#include "core/design_point.hpp"

namespace qccd
{

class Topology;

/**
 * Shape digest of a device graph: everything the surrogate reads about
 * a topology. Path statistics are means over all ordered trap pairs
 * (i < j) along BFS shortest paths (hop-count metric), so they track
 * the routes the shuttle scheduler actually uses.
 */
struct TopologyFeatures
{
    int traps = 0;
    int junctions = 0;
    int edges = 0;
    int totalCapacity = 0;
    int minTrapCapacity = 0;
    int maxTrapCapacity = 0;

    /** Max trap-pair shortest-path length, in edges. */
    int diameterEdges = 0;

    /** Mean trap-pair shortest-path statistics. @{ */
    double meanPathEdges = 0;
    double meanPathSegments = 0;
    double meanPathTraps = 0;      ///< intermediate traps per path
    double meanPathJunctions3 = 0; ///< intermediate Y junctions
    double meanPathJunctions4 = 0; ///< intermediate X+ junctions
    /** @} */
};

/** Extract the surrogate's feature digest from a built device. */
TopologyFeatures extractTopologyFeatures(const Topology &topo);

/** What a cost model predicts for one (design, application) pair. */
struct CostPrediction
{
    /** Predicted ln(application fidelity) (<= 0; higher is better). */
    double logFidelity = 0;

    /** Predicted makespan in microseconds. */
    double timeUs = 0;
};

/**
 * Closed-form surrogate over circuit stats x topology features.
 *
 * The estimator mirrors the simulator's structure: packed placement
 * fills traps to capacity minus the buffer slots, which sets the
 * chain length and with it the MS-gate duration and laser-instability
 * factor (both via ModelTables, so per-knob fidelity terms are the
 * exact per-op values the simulator uses); the interaction-distance
 * histogram estimates how many gates cross traps; scarce buffer space
 * inflates that traffic with forced evictions; shuttle traffic heats
 * chains (k1 per split/merge, k2 per segment, attenuated by the
 * recool factor) and adds reorder MS gates under GS or rotation time
 * under IS. Applications that fit one trap predict identically across
 * capacities and topologies — exactly like the simulator, which makes
 * index order the tie-break in both worlds.
 */
class AnalyticCostModel
{
  public:
    /** Deterministic and safe to call concurrently. */
    CostPrediction predict(const DesignPoint &design,
                           const CircuitStats &stats,
                           const TopologyFeatures &topo) const;
};

/**
 * Analytic surrogate corrected by least squares against real samples.
 *
 * fit() regresses measured log-fidelity on the analytic prediction
 * (and log-runtime likewise, in the log domain) and correct() applies
 * the affine corrections to an analytic prior. See the file comment
 * for the monotonicity guard; with fewer than kSlopeFitMinSamples
 * samples only intercepts are fitted. fit() is idempotent and
 * reproducible: the same samples in the same order produce
 * bit-identical coefficients.
 */
class CalibratedCostModel
{
  public:
    /** One real evaluation paired with its analytic prior. */
    struct Sample
    {
        CostPrediction prior;
        double logFidelity = 0;
        double timeUs = 0;
    };

    /** Samples below this count fit intercepts only. */
    static constexpr size_t kSlopeFitMinSamples = 4;

    /** Refit the corrections from scratch on @p samples. */
    void fit(const std::vector<Sample> &samples);

    /** Apply the fitted corrections to an analytic prior. */
    CostPrediction correct(const CostPrediction &prior) const;

    /** Fitted log-fidelity correction: corrected = a + b * prior. @{ */
    double fidelityIntercept() const { return fidA_; }
    double fidelitySlope() const { return fidB_; }
    /** @} */

    /** Fitted log-runtime correction coefficients. @{ */
    double timeIntercept() const { return timeA_; }
    double timeSlope() const { return timeB_; }
    /** @} */

  private:
    double fidA_ = 0;
    double fidB_ = 1;
    double timeA_ = 0;
    double timeB_ = 1;
};

} // namespace qccd

#endif // QCCD_CORE_COST_MODEL_HPP
