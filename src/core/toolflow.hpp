/**
 * @file
 * The end-to-end design toolflow (paper Fig. 3): take a candidate QCCD
 * architecture and an application, lower the application to the native
 * gate set, compile it onto the device, simulate the schedule with the
 * physical models, and report application- and device-level metrics.
 */

#ifndef QCCD_CORE_TOOLFLOW_HPP
#define QCCD_CORE_TOOLFLOW_HPP

#include <compare>
#include <cstdint>
#include <memory>
#include <string>

#include "circuit/circuit.hpp"
#include "compiler/scheduler.hpp"
#include "core/design_point.hpp"
#include "sim/model_replay.hpp"

namespace qccd
{

/**
 * Value key naming the architecture a ToolflowContext serves: the
 * topology spec, trap capacity, and the kKnobContext knobs (the
 * shuttle timings that feed the routing cost). Designs with equal keys
 * can share a context.
 */
struct ContextKey
{
    std::string topologySpec;
    int trapCapacity = 0;
    KnobValues knobs{}; ///< knobValues(hw, kKnobContext)

    friend auto operator<=>(const ContextKey &, const ContextKey &) =
        default;
};

/**
 * Stage key of the placement stage: exactly the inputs mapQubits reads
 * (the circuit, the device, the kKnobPlacement knobs and the policy).
 * Two runs with equal placement keys produce identical InitialMappings
 * (mapQubits is deterministic), so the later one can adopt the earlier
 * one's mapping.
 *
 * The circuit is identified by object address: stage keys are only
 * compared between runs that share their lowered circuits by pointer
 * (SweepEngine jobs hold them via shared_ptr for the whole batch), so
 * identity implies content and no digest is needed. Keys must not
 * outlive the circuits they name.
 */
struct PlacementKey
{
    std::uintptr_t circuit = 0;
    std::string topologySpec;
    int trapCapacity = 0;
    KnobValues knobs{}; ///< knobValues(hw, kKnobPlacement)
    MappingPolicy mappingPolicy = MappingPolicy::Packed;

    friend auto operator<=>(const PlacementKey &, const PlacementKey &) =
        default;
};

/**
 * Stage key of the schedule stage: every input that can influence the
 * scheduler's decisions, the emitted primitive sequence, or any
 * primitive's duration — circuit identity (see PlacementKey), the
 * architecture, the kScheduleKeyKnobs knobs, the placement policy and
 * the run options that alter scheduling (the decomposition pass, trace
 * collection, the watchdog budget).
 *
 * Runs with equal schedule keys emit bit-identical schedules; they may
 * differ only in the model-only knobs, whose effects a recorded
 * ModelEvalLog replays without re-scheduling. That is the invariant
 * the staged toolflow's delta evaluation rests on; it is enforced by
 * the staged-vs-scalar differentials in tests/test_sweep_engine.cpp
 * and tests/test_knobs.cpp.
 */
struct ScheduleKey
{
    std::uintptr_t circuit = 0;
    std::string topologySpec;
    int trapCapacity = 0;
    KnobValues knobs{}; ///< knobValues(hw, kScheduleKeyKnobs)
    MappingPolicy mappingPolicy = MappingPolicy::Packed;
    bool decomposeRuntime = false;
    bool collectTrace = false;
    long pointTimeoutMs = 0;

    friend auto operator<=>(const ScheduleKey &, const ScheduleKey &) =
        default;
};

/** Application + device metrics for one toolflow run. */
struct RunResult
{
    SimResult sim;

    /** Makespan with communication idealized to zero time (Fig. 6b). */
    TimeUs computeOnlyTime = 0;

    /** totalTime - computeOnlyTime: time attributable to shuttling. */
    TimeUs communicationTime() const;

    TimeUs totalTime() const { return sim.makespan; }
    double fidelity() const { return sim.fidelity(); }
};

/** Toolflow execution options. */
struct RunOptions
{
    bool collectTrace = false;

    /** Also run the zero-communication pass for the Fig. 6b split. */
    bool decomposeRuntime = false;

    /** Initial placement policy (paper default: packed). */
    MappingPolicy mappingPolicy = MappingPolicy::Packed;

    /**
     * Watchdog budget for the whole point (both passes of a decomposed
     * run), in milliseconds; 0 disables the deadline. When the budget
     * is exceeded the run throws TimeoutError at the next stage
     * boundary (scheduler pop loop, router eviction, shuttle emission)
     * — under sweep isolation that is a `timeout` outcome instead of a
     * stuck worker. Set via --point-timeout-ms or the spec's
     * "point_timeout_ms" option.
     */
    long pointTimeoutMs = 0;

    /**
     * Persistent result cache file (core/result_store.hpp) this
     * point's spec asked for; empty = no cache. Carried here so the
     * spec's "cache" option rides the same plumbing as its other
     * options — it never enters the cache key (a cache cannot depend
     * on its own location) and runToolflow itself ignores it: the
     * sweep layer owns the store.
     */
    std::string cachePath;
};

/**
 * Immutable per-architecture state shared across toolflow runs: the
 * built Topology and the all-pairs shuttle PathFinder over it.
 *
 * Building these dominates the fixed cost of a toolflow invocation, yet
 * every design point that shares a topology spec, capacity, and shuttle
 * timing produces identical copies. A context is constructed once per
 * distinct architecture (see SweepEngine's cache) and is safe to share
 * between concurrent schedulers: everything inside is read-only after
 * construction. Both members live behind stable pointers so contexts
 * can be moved around while schedulers hold references into them.
 */
class ToolflowContext
{
  public:
    explicit ToolflowContext(const DesignPoint &design);

    const Topology &topology() const { return *topo_; }
    const PathFinder &paths() const { return *paths_; }

    /**
     * Cache key covering every input the context depends on (see
     * ContextKey). Designs with equal keys can share a context.
     */
    static ContextKey cacheKey(const DesignPoint &design);

  private:
    std::unique_ptr<const Topology> topo_;
    std::unique_ptr<const PathFinder> paths_;
};

/** The schedule stage key for @p native on @p design under
 *  @p options (see ScheduleKey for the reuse invariant). */
ScheduleKey scheduleKeyFor(const Circuit &native,
                           const DesignPoint &design,
                           const RunOptions &options);

/**
 * Per-worker staged evaluator: runToolflow split into keyed, reusable
 * stages (plan → placement → schedule → model evaluation).
 *
 * Consecutive run() calls compare stage keys against the previous
 * point's. Same circuit: the cached SchedulePlan (successor links,
 * initial counts and fronts, first-use order) is scheduled off again
 * instead of being rebuilt, which a sweep's per-app blocks hit on
 * nearly every point (Fig. 8 schedules one circuit 48 times). Equal
 * placement key: the cached InitialMapping is adopted instead of
 * re-running mapQubits. Equal schedule key: the whole schedule is
 * reused — the cached run's recorded ModelEvalLog is replayed under
 * the new point's model knobs, re-evaluating only the model-dependent
 * metrics (a large multiple cheaper than scheduling). Results are
 * bit-identical to scalar runToolflow calls in any order; SweepEngine
 * orders each batch by schedule key so model-knob axes collapse onto
 * one full schedule per span of equal keys. Recording the log costs a
 * 24-byte event per model-relevant primitive, so the engine tells each
 * run whether the next point will read it (see the five-argument run).
 *
 * Holds a SchedulerScratch and the stage caches; not thread-safe (one
 * instance per worker). The plan cache and the cached keys name their
 * circuit by address (as PlacementKey does), so a StagedToolflow must
 * not outlive the circuits it has evaluated.
 */
class StagedToolflow
{
  public:
    /** Stage-reuse counters (BM_SweepDelta's metric). */
    struct Stats
    {
        size_t fullSchedules = 0;    ///< points that ran the scheduler
        size_t replays = 0;          ///< points served by model replay
        size_t placementsReused = 0; ///< full runs that skipped mapQubits
        size_t plansBuilt = 0;       ///< schedule plans built (per new circuit)
        size_t logsRecorded = 0;     ///< full runs that kept a model log
    };

    /**
     * Evaluate one point, reusing the previous point's stages when the
     * keys allow. Bit-identical to runToolflow(native, design, context,
     * options, scratch). Exceptions propagate exactly as runToolflow's
     * (a throw invalidates the schedule cache, so the next point runs
     * full); infeasible model parameters are rejected on the replay
     * path by the same HardwareParams::validate the scheduler runs.
     * Every full schedule records its model log and stays cached.
     */
    RunResult run(const Circuit &native, const DesignPoint &design,
                  const ToolflowContext &context,
                  const RunOptions &options);

    /**
     * As above, told whether the next point shares this point's
     * schedule key. Only then does a full schedule record its model
     * log and stay cached; otherwise the cached schedule is dropped
     * after this point (even if it throws), so the next point
     * schedules in full. Results are bit-identical either way.
     */
    RunResult run(const Circuit &native, const DesignPoint &design,
                  const ToolflowContext &context,
                  const RunOptions &options, bool nextSharesKey);

    const Stats &stats() const { return stats_; }

  private:
    SchedulerScratch scratch_;

    /** Plan cache: the plan of the most recent full schedule's circuit
     *  (ScheduleKey::circuit). @{ */
    bool havePlan_ = false;
    std::uintptr_t planCircuit_ = 0;
    SchedulePlan plan_;
    /** @} */

    /** Placement stage cache (last distinct mapping). @{ */
    bool havePlacement_ = false;
    PlacementKey placementKey_;
    InitialMapping placement_;
    /** @} */

    /** Schedule stage cache (last full schedule + its model log). Set
     *  only by a run that recorded the log, so a replay never reads an
     *  unrecorded one. @{ */
    bool haveSchedule_ = false;
    ScheduleKey scheduleKey_;
    RunResult scheduleBase_;
    ModelEvalLog log_;
    /** @} */

    Stats stats_;
};

/**
 * Run @p circuit (any supported gate set) on @p design.
 *
 * The circuit is lowered with decomposeToNative() internally and the
 * architecture context is built on the spot. Sweeps evaluating many
 * points should lower once and share contexts via the overload below
 * (that is what SweepEngine automates).
 *
 * @throws ConfigError when the application does not fit the device or
 *         the configuration is invalid
 */
RunResult runToolflow(const Circuit &circuit, const DesignPoint &design,
                      const RunOptions &options = {});

/**
 * Run @p native (already lowered with decomposeToNative()) on
 * @p design, reusing the prebuilt @p context.
 *
 * @p context must have been built for a design with the same
 * ToolflowContext::cacheKey() as @p design. Thread-safe with respect
 * to other runs sharing the same context and circuit.
 *
 * @p scratch optionally pools scheduler buffers: the two passes of a
 * decomposed run share it, and a sweep worker can carry one scratch
 * across all its points (see SchedulerScratch). Results are
 * bit-identical with or without it.
 */
RunResult runToolflow(const Circuit &native, const DesignPoint &design,
                      const ToolflowContext &context,
                      const RunOptions &options = {},
                      SchedulerScratch *scratch = nullptr);

/**
 * Like runToolflow but also returns the full schedule (trace and
 * mapping) for inspection; always collects the trace. Honors the
 * schedule-shaping options (mappingPolicy, pointTimeoutMs); the
 * trace/decompose flags are ignored (the trace is always collected,
 * and there is no second pass to decompose).
 */
ScheduleResult runToolflowDetailed(const Circuit &circuit,
                                   const DesignPoint &design,
                                   const RunOptions &options = {});

/** Context-sharing variant of runToolflowDetailed (@p native lowered). */
ScheduleResult runToolflowDetailed(const Circuit &native,
                                   const DesignPoint &design,
                                   const ToolflowContext &context,
                                   const RunOptions &options = {});

} // namespace qccd

#endif // QCCD_CORE_TOOLFLOW_HPP
