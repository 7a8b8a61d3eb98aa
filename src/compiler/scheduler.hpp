/**
 * @file
 * The QCCD backend scheduler (paper Sections V-A, VI).
 *
 * Implements earliest-ready-gate-first list scheduling over the device's
 * resource timelines. Single-qubit gates and measurements run in the
 * ion's current trap; two-qubit gates between different traps trigger a
 * shuttle: reorder to the exit end, split, move across segments and
 * junctions (merging through intermediate traps on linear topologies,
 * Fig. 4), merge at the destination, then the MS gate. Full destination
 * traps first evict their least-soon-needed ion to the nearest trap
 * with space.
 *
 * All primitive operations are atomic reservations on monotone
 * timelines, so parallel shuttles can never deadlock; contention at
 * junctions or segments resolves to waiting, which is exactly the
 * paper's congestion policy.
 *
 * Shuttle emission is driven purely by the routed Path's step sequence
 * (edges, junction crossings, trap pass-throughs) — nothing here
 * assumes a linear chain or a junction rail, so the scheduler runs
 * unchanged on any validated topology, including `.topo` device files.
 */

#ifndef QCCD_COMPILER_SCHEDULER_HPP
#define QCCD_COMPILER_SCHEDULER_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arch/path.hpp"
#include "arch/topology.hpp"
#include "circuit/circuit.hpp"
#include "common/deadline.hpp"
#include "compiler/mapping.hpp"
#include "compiler/ready_list.hpp"
#include "compiler/reorder.hpp"
#include "compiler/router.hpp"
#include "compiler/schedule_plan.hpp"
#include "models/params.hpp"
#include "sim/device_state.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace qccd
{

/** Scheduling knobs. */
struct ScheduleOptions
{
    bool collectTrace = true;   ///< record the primitive op trace
    bool zeroCommTimes = false; ///< Fig. 6b decomposition mode

    /** Initial placement policy (paper default: packed). */
    MappingPolicy mappingPolicy = MappingPolicy::Packed;

    /**
     * Cooperative watchdog checked at stage boundaries (pop loop,
     * evictions, shuttle emission); unarmed by default. An expired
     * deadline throws TimeoutError, leaving the scratch buffers valid
     * for the next run (every run fully reinitializes them).
     */
    Deadline deadline;

    /**
     * Precomputed initial placement to adopt instead of running
     * mapQubits (the staged toolflow's placement cache). Must be the
     * mapping mapQubits(circuit, topo, hw.bufferSlots, mappingPolicy)
     * would produce — mapping is deterministic, so a cached result for
     * identical inputs is exactly that — and must outlive the run.
     */
    const InitialMapping *placement = nullptr;

    /**
     * Precomputed plan of the circuit to schedule off instead of
     * building one (the toolflow shares one across every schedule of a
     * circuit). Must have been built from this circuit and must outlive
     * the run. Its shape is always checked against the circuit, and
     * checked builds re-derive all of it before the run. When null, the
     * scheduler builds a plan into its SchedulerScratch.
     */
    const SchedulePlan *plan = nullptr;

    /**
     * When set, the emitter's ModelFold records every event it folds
     * here, in emission order (see sim/model_replay.hpp), enabling
     * model-knob re-evaluation without re-scheduling. The log is NOT
     * cleared by the scheduler; callers clear it between recordings.
     */
    ModelEvalLog *modelLog = nullptr;
};

/** Output of one compile+simulate pass. */
struct ScheduleResult
{
    SimResult metrics;
    Trace trace;
    InitialMapping mapping;
};

/**
 * Reusable buffers shared between consecutive Scheduler runs.
 *
 * A toolflow point schedules the same circuit up to twice (the real
 * pass and the zero-communication pass of the Fig. 6b decomposition),
 * and a sweep worker evaluates many points back to back. Passing one
 * scratch to every Scheduler pools the allocations: each run copies
 * its plan's predecessor counts and per-qubit fronts into storage kept
 * here, the ready list keeps its storage, and the DeviceState is reset
 * in place instead of reconstructed when the same topology and ion
 * count repeat. The successor links are not built per run: they live
 * in the SchedulePlan, which a run borrows (ScheduleOptions::plan) or
 * else builds into this scratch. Contents are fully (re)initialized by
 * each run, so results are bit-identical with and without a scratch.
 * Not thread-safe: use one scratch per worker.
 */
class SchedulerScratch
{
  public:
    SchedulerScratch() = default;

    /**
     * The pooled device state of the most recent run (nullptr before
     * any run). Exposed read-only so tests can check end-of-run
     * invariants (e.g. DeviceState::positionIndexConsistent).
     */
    const DeviceState *deviceState() const
    {
        return state_.has_value() ? &*state_ : nullptr;
    }

  private:
    friend class Scheduler;

    /** Built here by every run that borrows no plan (only the storage
     *  is pooled: address-based circuit identity would be unsound
     *  across pooled runs). */
    SchedulePlan plan_;

    /** Per-run copies of the plan's mutable arrays. @{ */
    std::vector<uint8_t> pending_; ///< per gate: unretired predecessors
    std::vector<uint32_t> front_;  ///< per qubit: next unexecuted gate
    /** @} */

    ReadyList ready_;
    std::optional<DeviceState> state_;
};

/** Compiles and simulates one circuit on one device configuration. */
class Scheduler
{
  public:
    /**
     * @param circuit program in the native gate set ({1q, MS, measure};
     *        use decomposeToNative() first)
     * @param topo device topology (must outlive the scheduler)
     * @param hw hardware parameterization
     * @param options scheduling knobs
     * @param scratch optional buffer pool reused across schedulers
     *        (must outlive this scheduler; one scheduler at a time)
     */
    Scheduler(const Circuit &circuit, const Topology &topo,
              const HardwareParams &hw, ScheduleOptions options = {},
              SchedulerScratch *scratch = nullptr);

    /**
     * Like the owning constructor, but routes over a prebuilt all-pairs
     * @p paths instead of recomputing Dijkstra per scheduler. The paths
     * must have been built over @p topo with pathCostFrom(@p hw) (what
     * ToolflowContext does) and must outlive the scheduler; one
     * PathFinder may be shared by many concurrent schedulers.
     */
    Scheduler(const Circuit &circuit, const Topology &topo,
              const HardwareParams &hw, const PathFinder &paths,
              ScheduleOptions options = {},
              SchedulerScratch *scratch = nullptr);

    /** Run the full schedule; callable once. */
    ScheduleResult run();

    /** Routing cost weights implied by @p hw (shared with contexts). */
    static PathCost pathCostFrom(const HardwareParams &hw);

  private:
    /** Owning delegate: keeps @p owned alive and routes over it. */
    Scheduler(const Circuit &circuit, const Topology &topo,
              const HardwareParams &hw,
              std::unique_ptr<PathFinder> owned, ScheduleOptions options,
              SchedulerScratch *scratch);

    const Circuit &circuit_;
    const Topology &topo_;
    HardwareParams hw_;
    ScheduleOptions options_;

    std::unique_ptr<PathFinder> ownedPaths_; ///< only when not shared
    const PathFinder &paths_;
    Router router_;

    SchedulerScratch ownScratch_; ///< used when the caller gave none
    SchedulerScratch *scratch_;   ///< buffers this run schedules out of
    DeviceState *state_;          ///< lives in scratch_->state_
    const SchedulePlan *plan_ = nullptr; ///< borrowed or scratch_->plan_

    ScheduleResult result_;
    std::unique_ptr<PrimitiveEmitter> emitter_;

    bool ran_ = false;

    /** Emplace or reset the pooled DeviceState for this run. */
    void initState();

    /** Validate the knobs, bind (or build) the plan, make the emitter. */
    void validateAndInitEmitter();

    /** Copy the plan's counts and fronts into the scratch. */
    void initQueues();

    void placeInitialLayout();

    /** Gate index of qubit @p q's next pending gate (SIZE_MAX if none). */
    size_t nextGateIndex(QubitId q) const;

    /** True when gate @p gi is the front gate of all its operands. */
    bool gateReady(size_t gi) const;

    /**
     * Advance qubit @p q's front past a retired gate to @p next, and
     * push @p next once its last predecessor has retired.
     */
    void release(QubitId q, uint32_t next);

    /** Data-ready time of gate @p gi. */
    TimeUs gateReadyTime(size_t gi) const;

    void executeGate(size_t gi);

    /**
     * Shuttle @p ion to trap @p dest; returns the ion that arrives
     * (GS reordering may teleport the payload to a different ion) and
     * sets @p out_time to the final merge completion.
     *
     * @pre dest has a free slot (callers evict first and must then
     *      re-resolve qubit -> ion bindings, since evictions can
     *      teleport payloads between physical ions)
     */
    IonId performShuttle(IonId ion, TrapId dest, TimeUs ready,
                         TimeUs *out_time);

    /** Make room in @p dest by evicting its least-needed ion. */
    void evictFrom(TrapId dest, IonId keep, TimeUs ready);
};

} // namespace qccd

#endif // QCCD_COMPILER_SCHEDULER_HPP
