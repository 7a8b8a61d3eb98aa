/**
 * @file
 * Parallel design-space sweep engine.
 *
 * The paper's headline artifact is a sweep: applications x capacities x
 * topologies x gate implementations (Figs. 6-8). Evaluating points
 * serially wastes both redundant work (the same application is lowered
 * once per point, the same Topology and all-pairs PathFinder rebuilt
 * for dozens of points that share an architecture) and the machine's
 * cores. The engine eliminates both:
 *
 *  - jobs share their lowered circuit, which the caller lowers once
 *    per application (SweepSpecRunner; decomposeToNative is
 *    deterministic, so it is identical to a per-point lowering);
 *  - a ToolflowContext cache builds one Topology + PathFinder per
 *    distinct architecture (keyed by ToolflowContext::cacheKey);
 *  - a fixed-size std::jthread worker pool pulls spans of work off a
 *    shared atomic counter and writes results into preallocated
 *    slots, so the result vector is in input order and bit-identical
 *    for any worker count (jobs=1 included);
 *  - jobs are grouped by schedule stage key (see ScheduleKey), each
 *    group split into at most max(1, workers / groups) contiguous
 *    spans, and each worker evaluates through a StagedToolflow, so a
 *    point differing from its span predecessor only in model knobs
 *    replays the cached schedule's model log instead of
 *    re-scheduling. Only a point with a successor in its span records
 *    that log, and no replay crosses a span boundary, so the staged
 *    counts depend on the batch and worker count alone. Every point's
 *    row is still bit-identical to a scalar runToolflow call.
 *
 * Circuits and contexts are immutable after construction, and the
 * context cache is populated before any worker starts, so workers
 * share everything without locks.
 */

#ifndef QCCD_CORE_SWEEP_ENGINE_HPP
#define QCCD_CORE_SWEEP_ENGINE_HPP

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "core/toolflow.hpp"

namespace qccd
{

/** One design point queued for evaluation. */
struct SweepJob
{
    /** Label recorded in the resulting SweepPoint. */
    std::string application;

    /** Lowered circuit (native gate set); see SweepEngine::lower. */
    std::shared_ptr<const Circuit> native;

    DesignPoint design;
    RunOptions options;
};

/**
 * What SweepEngine::run does with a failing point.
 *
 * Rethrow is the historical contract (the whole batch's work is
 * discarded behind the first exception); Isolate is the fault-tolerant
 * contract (each point carries its own PointOutcome and the batch
 * always completes). Isolation is what --keep-going rides on.
 */
enum class FailurePolicy
{
    Rethrow, ///< run everything, then rethrow the first point's error
    Isolate, ///< record per-point outcomes; run() never throws per-point
};

/** Parallel evaluator for batches of design points. */
class SweepEngine
{
  public:
    /**
     * @param jobs worker count; <= 0 resolves via resolveJobs(): the
     *        QCCD_JOBS environment variable if set, otherwise
     *        std::thread::hardware_concurrency()
     */
    explicit SweepEngine(int jobs = 0);

    /** The resolved worker count (>= 1). */
    int jobs() const { return jobs_; }

    /** Lower an arbitrary @p circuit into a shareable job input. */
    static std::shared_ptr<const Circuit> lower(const Circuit &circuit);

    /**
     * The shared Topology + PathFinder for @p design, cached per engine
     * under ToolflowContext::cacheKey. Not thread-safe: populate from
     * the sweep thread (run() does this for its whole batch up front).
     */
    std::shared_ptr<const ToolflowContext> context(const DesignPoint &design);

    /**
     * Evaluate every job across the worker pool.
     *
     * Results are returned in input order and are bit-identical for any
     * worker count. Under FailurePolicy::Rethrow (the default), if any
     * job throws the remaining jobs still run and the lowest-indexed
     * exception is rethrown. Under FailurePolicy::Isolate a failing
     * job (including a failing context build) becomes a per-point
     * outcome + diagnostic and the batch always returns completely; a
     * failed point's RunResult is default-constructed and must not be
     * read.
     */
    std::vector<SweepPoint>
    run(const std::vector<SweepJob> &batch,
        FailurePolicy policy = FailurePolicy::Rethrow);

    /**
     * Resolve a requested worker count (see the constructor). A set
     * but malformed QCCD_JOBS (non-integer, trailing junk, < 1, or out
     * of range) is a usage error: a pointed diagnostic goes to stderr
     * and the process exits with status 2 — silently falling back to
     * hardware concurrency would hide the typo behind an unexpected
     * core count.
     */
    static int resolveJobs(int requested);

    /**
     * Cumulative stage-reuse counters summed over every run() batch:
     * how many points ran the scheduler vs. were served by model
     * replay (the sweep's delta-evaluation win, surfaced as the
     * "staged:" line and BM_SweepDelta's metric). A pure function of
     * the batches and the worker count; a batch whose thread spawn
     * fails adds nothing.
     */
    const StagedToolflow::Stats &deltaStats() const
    {
        return deltaStats_;
    }

  private:
    int jobs_;
    StagedToolflow::Stats deltaStats_;
    std::map<ContextKey, std::shared_ptr<const ToolflowContext>> contexts_;
};

} // namespace qccd

#endif // QCCD_CORE_SWEEP_ENGINE_HPP
