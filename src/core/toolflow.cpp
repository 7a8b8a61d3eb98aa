#include "core/toolflow.hpp"

#include <algorithm>
#include <utility>

#include "circuit/decompose.hpp"
#include "common/error.hpp"
#include "common/faultpoint.hpp"

namespace qccd
{

TimeUs
RunResult::communicationTime() const
{
    return std::max(sim.makespan - computeOnlyTime, 0.0);
}

ToolflowContext::ToolflowContext(const DesignPoint &design)
    : topo_(std::make_unique<const Topology>(design.buildTopology())),
      paths_(std::make_unique<const PathFinder>(
          *topo_, Scheduler::pathCostFrom(design.hw)))
{
    // Checked builds re-audit the full graph invariant set on every
    // context, so a builder bug cannot hand the toolflow a device the
    // .topo loader would have rejected.
    QCCD_CHECKED_ONLY(topo_->validate();)
}

ContextKey
ToolflowContext::cacheKey(const DesignPoint &design)
{
    return ContextKey{design.topologySpec, design.trapCapacity,
                      knobValues(design.hw, kKnobContext)};
}

ScheduleKey
scheduleKeyFor(const Circuit &native, const DesignPoint &design,
               const RunOptions &options)
{
    return ScheduleKey{reinterpret_cast<std::uintptr_t>(&native),
                       design.topologySpec, design.trapCapacity,
                       knobValues(design.hw, kScheduleKeyKnobs),
                       options.mappingPolicy, options.decomposeRuntime,
                       options.collectTrace, options.pointTimeoutMs};
}

namespace
{

/** The placement stage key for @p native on @p design. */
PlacementKey
placementKeyFor(const Circuit &native, const DesignPoint &design,
                const RunOptions &options)
{
    return PlacementKey{reinterpret_cast<std::uintptr_t>(&native),
                        design.topologySpec, design.trapCapacity,
                        knobValues(design.hw, kKnobPlacement),
                        options.mappingPolicy};
}

/**
 * The shared body of every full toolflow evaluation. @p plan
 * optionally injects a cached plan of @p native; without one, the
 * point builds one plan for both passes. @p placement optionally
 * injects a cached initial mapping; without one, the real pass maps
 * and the zero-communication pass adopts its mapping, so mapQubits
 * runs at most once per point. @p mapping_out, when set, receives the
 * mapping both passes used. @p log optionally records the real pass's
 * model-relevant primitives for later replay (the zero-communication
 * pass is schedule-determined and never replayed, so it is not
 * logged).
 */
RunResult
runToolflowImpl(const Circuit &native, const DesignPoint &design,
                const ToolflowContext &context,
                const RunOptions &options, SchedulerScratch *scratch,
                const SchedulePlan *plan, const InitialMapping *placement,
                ModelEvalLog *log, InitialMapping *mapping_out)
{
    QCCD_FAULT_POINT("toolflow.run");

    // Both passes (and, through the caller's scratch, consecutive
    // points of a sweep worker) schedule out of one buffer pool and
    // one plan.
    SchedulerScratch local;
    if (scratch == nullptr)
        scratch = &local;
    SchedulePlan local_plan;
    if (plan == nullptr) {
        local_plan.build(native);
        plan = &local_plan;
    }

    // One watchdog budget covers the whole point: both passes share
    // the same absolute due time, armed when evaluation starts.
    const Deadline deadline = options.pointTimeoutMs > 0
                                  ? Deadline::afterMs(
                                        options.pointTimeoutMs)
                                  : Deadline();

    RunResult result;
    InitialMapping mapping;
    {
        ScheduleOptions sched;
        sched.collectTrace = options.collectTrace;
        sched.mappingPolicy = options.mappingPolicy;
        sched.deadline = deadline;
        sched.placement = placement;
        sched.plan = plan;
        sched.modelLog = log;
        Scheduler scheduler(native, context.topology(), design.hw,
                            context.paths(), sched, scratch);
        ScheduleResult first = scheduler.run();
        result.sim = first.metrics;
        mapping = std::move(first.mapping);
    }
    if (options.decomposeRuntime) {
        // Second pass with shuttling idealized to zero duration yields
        // the pure computation critical path; the difference is the
        // communication share (Fig. 6b's decomposition). The pass
        // reuses the lowered circuit and its plan, the shared context,
        // the first pass's mapping and its scratch buffers: only the
        // schedule itself is recomputed.
        ScheduleOptions sched;
        sched.collectTrace = false;
        sched.zeroCommTimes = true;
        sched.mappingPolicy = options.mappingPolicy;
        sched.deadline = deadline;
        sched.placement = &mapping;
        sched.plan = plan;
        Scheduler scheduler(native, context.topology(), design.hw,
                            context.paths(), sched, scratch);
        result.computeOnlyTime = scheduler.run().metrics.makespan;
    }
    if (mapping_out != nullptr)
        *mapping_out = std::move(mapping);
    return result;
}

} // namespace

RunResult
runToolflow(const Circuit &native, const DesignPoint &design,
            const ToolflowContext &context, const RunOptions &options,
            SchedulerScratch *scratch)
{
    return runToolflowImpl(native, design, context, options, scratch,
                           nullptr, nullptr, nullptr, nullptr);
}

RunResult
runToolflow(const Circuit &circuit, const DesignPoint &design,
            const RunOptions &options)
{
    const Circuit native = decomposeToNative(circuit);
    const ToolflowContext context(design);
    return runToolflow(native, design, context, options);
}

RunResult
StagedToolflow::run(const Circuit &native, const DesignPoint &design,
                    const ToolflowContext &context,
                    const RunOptions &options)
{
    return run(native, design, context, options, true);
}

RunResult
StagedToolflow::run(const Circuit &native, const DesignPoint &design,
                    const ToolflowContext &context,
                    const RunOptions &options, bool nextSharesKey)
{
    const ScheduleKey key = scheduleKeyFor(native, design, options);
    if (haveSchedule_ && key == scheduleKey_) {
        // Model-knobs-only delta: the cached schedule is bit-identical
        // to what this point would produce, so replay its model log
        // under the new knobs. The fault point and parameter
        // validation keep failure semantics aligned with the full
        // path (an infeasible model knob must classify as infeasible
        // here too, not silently evaluate). The cache is dropped
        // first when no later point reads it, so a throw cannot leave
        // it behind either.
        haveSchedule_ = nextSharesKey;
        QCCD_FAULT_POINT("toolflow.run");
        design.hw.validate();
        RunResult result = scheduleBase_;
        result.sim = replayModelEval(log_, design.hw, scheduleBase_.sim);
        ++stats_.replays;
        return result;
    }

    const PlacementKey pkey = placementKeyFor(native, design, options);
    const InitialMapping *placement = nullptr;
    if (havePlacement_ && pkey == placementKey_) {
        placement = &placement_;
        ++stats_.placementsReused;
    }

    // Invalidate before scheduling so a throw (timeout, fault
    // injection, infeasible config) can never leave a stale schedule
    // paired with the new key.
    haveSchedule_ = false;
    log_.clear();

    // The plan depends on the circuit alone; the schedule key carries
    // the circuit's identity. Invalidate it before a rebuild, so a
    // throw (a non-native circuit) never leaves a half-built plan
    // paired with any circuit.
    if (!havePlan_ || planCircuit_ != key.circuit) {
        havePlan_ = false;
        plan_.build(native);
        planCircuit_ = key.circuit;
        havePlan_ = true;
        ++stats_.plansBuilt;
    }

    InitialMapping mapped;
    RunResult result = runToolflowImpl(
        native, design, context, options, &scratch_, &plan_, placement,
        nextSharesKey ? &log_ : nullptr, &mapped);
    ++stats_.fullSchedules;

    if (nextSharesKey) {
        scheduleKey_ = key;
        scheduleBase_ = result;
        haveSchedule_ = true;
        ++stats_.logsRecorded;
    }
    if (placement == nullptr) {
        // Adopt the mapping this run computed for future placement
        // reuse (mapQubits is deterministic, so it is exactly what a
        // rerun would return).
        placementKey_ = pkey;
        placement_ = std::move(mapped);
        havePlacement_ = true;
    }
    return result;
}

ScheduleResult
runToolflowDetailed(const Circuit &native, const DesignPoint &design,
                    const ToolflowContext &context,
                    const RunOptions &options)
{
    ScheduleOptions sched;
    sched.collectTrace = true;
    sched.mappingPolicy = options.mappingPolicy;
    if (options.pointTimeoutMs > 0)
        sched.deadline = Deadline::afterMs(options.pointTimeoutMs);
    Scheduler scheduler(native, context.topology(), design.hw,
                        context.paths(), sched);
    return scheduler.run();
}

ScheduleResult
runToolflowDetailed(const Circuit &circuit, const DesignPoint &design,
                    const RunOptions &options)
{
    const Circuit native = decomposeToNative(circuit);
    const ToolflowContext context(design);
    return runToolflowDetailed(native, design, context, options);
}

} // namespace qccd
