#include "compiler/scheduler.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "common/faultpoint.hpp"

namespace qccd
{

PathCost
Scheduler::pathCostFrom(const HardwareParams &hw)
{
    PathCost cost;
    cost.perSegment = hw.shuttle.movePerSegment;
    cost.yJunction = hw.shuttle.yJunction;
    cost.xJunction = hw.shuttle.xJunction;
    // Routing estimate for a trap pass-through: merge + split plus a
    // nominal reorder allowance of three mid-chain MS gates.
    cost.trapPassThrough = hw.shuttle.merge + hw.shuttle.split + 300.0;
    return cost;
}

Scheduler::Scheduler(const Circuit &circuit, const Topology &topo,
                     const HardwareParams &hw, ScheduleOptions options,
                     SchedulerScratch *scratch)
    : Scheduler(circuit, topo, hw,
                std::make_unique<PathFinder>(topo, pathCostFrom(hw)),
                options, scratch)
{
}

Scheduler::Scheduler(const Circuit &circuit, const Topology &topo,
                     const HardwareParams &hw,
                     std::unique_ptr<PathFinder> owned,
                     ScheduleOptions options, SchedulerScratch *scratch)
    : circuit_(circuit), topo_(topo), hw_(hw), options_(options),
      ownedPaths_(std::move(owned)), paths_(*ownedPaths_),
      router_(topo, paths_),
      scratch_(scratch != nullptr ? scratch : &ownScratch_)
{
    initState();
    validateAndInitEmitter();
}

Scheduler::Scheduler(const Circuit &circuit, const Topology &topo,
                     const HardwareParams &hw, const PathFinder &paths,
                     ScheduleOptions options, SchedulerScratch *scratch)
    : circuit_(circuit), topo_(topo), hw_(hw), options_(options),
      paths_(paths), router_(topo, paths_),
      scratch_(scratch != nullptr ? scratch : &ownScratch_)
{
    initState();
    validateAndInitEmitter();
}

void
Scheduler::initState()
{
    // Reuse the pooled state only when its storage provably fits this
    // run: same topology object AND vectors sized for its current
    // extents. The size checks guard against a different Topology
    // recycled at the old address (per-node data is always read live
    // through the reference, but the per-trap/edge/node vectors were
    // sized at construction and must match this topology).
    std::optional<DeviceState> &pooled = scratch_->state_;
    if (pooled.has_value() &&
        pooled->fits(topo_, circuit_.numQubits()))
        pooled->reset();
    else
        pooled.emplace(topo_, circuit_.numQubits());
    state_ = &*pooled;
}

void
Scheduler::validateAndInitEmitter()
{
    hw_.validate();
    if (options_.plan == nullptr) {
        scratch_->plan_.build(circuit_);
        plan_ = &scratch_->plan_;
    } else {
        plan_ = options_.plan;
        panicUnless(plan_->fits(circuit_),
                    "schedule plan was built from a different circuit");
        QCCD_CHECKED_ONLY(plan_->audit(circuit_);)
    }
    emitter_ = std::make_unique<PrimitiveEmitter>(
        *state_, hw_, result_.metrics,
        options_.collectTrace ? &result_.trace : nullptr,
        options_.zeroCommTimes, options_.modelLog);
}

void
Scheduler::initQueues()
{
    QCCD_FAULT_POINT("scheduler.build_queues");

    // The only per-run state the plan seeds; copy-assignment keeps the
    // pooled storage once it is large enough.
    scratch_->pending_ = plan_->pending();
    scratch_->front_ = plan_->front();
}

void
Scheduler::placeInitialLayout()
{
    // A caller-supplied placement is by contract the mapping mapQubits
    // would return for these inputs (mapQubits is deterministic), so
    // adopting it is bit-identical to recomputing it.
    if (options_.placement != nullptr)
        result_.mapping = *options_.placement;
    else
        result_.mapping =
            mapQubitsInOrder(plan_->firstUseOrder(), topo_,
                             hw_.bufferSlots, options_.mappingPolicy);
    result_.metrics.effectiveBuffer = result_.mapping.effectiveBuffer;
    for (TrapId t = 0; t < topo_.trapCount(); ++t) {
        for (QubitId q : result_.mapping.chainOrder[t]) {
            // Ion ids coincide with the program qubit they initially
            // carry; payloads drift apart under GS reordering.
            state_->placeIon(t, q, q);
        }
    }
}

size_t
Scheduler::nextGateIndex(QubitId q) const
{
    const uint32_t gi = scratch_->front_[q];
    return gi == kNoGate ? SIZE_MAX : gi;
}

// gateReady, release and gateReadyTime run on every pop; `inline` keeps
// GCC folding them into run(), where a call per release cost ~10% of a
// sweep.
inline bool
Scheduler::gateReady(size_t gi) const
{
    const SchedulePlan::GateRecord &g = plan_->gate(gi);
    const std::vector<uint32_t> &front = scratch_->front_;
    return front[g.q0] == gi && front[g.q1] == gi;
}

inline void
Scheduler::release(QubitId q, uint32_t next)
{
    SchedulerScratch &s = *scratch_;
    s.front_[q] = next;
    if (next != kNoGate && --s.pending_[next] == 0)
        s.ready_.push(gateReadyTime(next), next);
}

inline TimeUs
Scheduler::gateReadyTime(size_t gi) const
{
    const SchedulePlan::GateRecord &g = plan_->gate(gi);
    const auto &ready =
        static_cast<const PrimitiveEmitter &>(*emitter_).qubitReady();
    return std::max(ready[g.q0], ready[g.q1]);
}

ScheduleResult
Scheduler::run()
{
    panicUnless(!ran_, "Scheduler::run may only be called once");
    ran_ = true;

    initQueues();
    placeInitialLayout();

    SchedulerScratch &s = *scratch_;
    const size_t total = plan_->executableGates();
    if (options_.collectTrace) {
        // Every gate emits at least one primitive; shuttle/reorder
        // expansion adds more. Pre-size for the common sweep shapes so
        // the trace grows without reallocating mid-run.
        result_.trace.reserve(total + total / 2);
    }

    // Ready list of (data-ready time, gate index) on pooled storage,
    // popped in ascending order. A gate enters once, when its last
    // predecessor retires. Its key can go stale, because shuttles and
    // reorders for other gates move its operands' ready times, so a
    // popped gate that is now ready later is pushed back under its new
    // time. Each gate thus has at most one live entry, which makes
    // (key, gate) a strict order over the live entries: ties between
    // equal keys always pop the lower gate index first.
    ReadyList &ready = s.ready_;
    ready.clear();
    for (QubitId q = 0; q < circuit_.numQubits(); ++q) {
        // A two-qubit gate fronts both operands; push it once.
        const uint32_t gi = s.front_[q];
        if (gi != kNoGate && s.pending_[gi] == 0 &&
            plan_->gate(gi).q0 == q)
            ready.push(gateReadyTime(gi), gi);
    }

    size_t executed = 0;
    size_t pops = 0;

    while (!ready.empty()) {
        // Watchdog: a clock read per pop would be measurable on the
        // 1 ms/point hot path, so the deadline is sampled every 256
        // pops (the first pop included, so an already-expired deadline
        // fires before any work). Unarmed deadlines cost one branch.
        QCCD_FAULT_POINT("scheduler.pop");
        if ((pops++ & 0xFF) == 0)
            options_.deadline.check("scheduler.pop");

        const auto [key, gi] = ready.pop();
        panicUnless(gateReady(gi),
                    "non-ready gate escaped into the ready list");
        const TimeUs now = gateReadyTime(gi);
        if (now > key) {
            ready.push(now, gi);
            continue;
        }

        executeGate(gi);
        ++executed;

        // Retire the gate: advance its operands' fronts and surface
        // the successors it was the last predecessor of.
        const SchedulePlan::GateRecord &g = plan_->gate(gi);
        release(g.q0, g.succ[0]);
        if (g.kind == SchedulePlan::Kind::MS)
            release(g.q1, g.succ[1]);
    }

    panicUnless(executed == total,
                "scheduler finished with unexecuted gates");

    // Occupancy conservation: every ion must end the run back in some
    // trap (performShuttle always re-merges what it splits off), and
    // every program qubit must still resolve through the payload maps.
    QCCD_CHECKED_ONLY({
        int trapped = 0;
        for (TrapId t = 0; t < topo_.trapCount(); ++t)
            trapped += state_->chain(t).size();
        panicUnless(trapped == circuit_.numQubits(),
                    "scheduler finished with ions in flight");
        for (QubitId q = 0; q < circuit_.numQubits(); ++q)
            panicUnless(state_->payloadOf(state_->ionOf(q)) == q,
                        "qubit->ion->payload maps desynchronized");
    })
    result_.metrics.maxChainEnergy = state_->maxEnergySeen();
    return std::move(result_);
}

void
Scheduler::executeGate(size_t gi)
{
    QCCD_FAULT_POINT("scheduler.execute");

    const SchedulePlan::GateRecord &g = plan_->gate(gi);
    if (g.kind == SchedulePlan::Kind::Measure) {
        emitter_->emitMeasure(g.q0, 0);
        return;
    }
    if (g.kind == SchedulePlan::Kind::OneQubit) {
        emitter_->emitOneQubit(g.q0, 0);
        return;
    }

    panicUnless(g.kind == SchedulePlan::Kind::MS,
                "a barrier escaped into the ready list");

    // Gate-based reordering teleports logical payloads between physical
    // ions (including during evictions that pass through other traps),
    // so qubit -> ion bindings must be re-resolved after every eviction
    // rather than cached across it.
    for (int guard = 0; ; ++guard) {
        panicUnless(guard < 1000, "gate placement failed to converge");
        const IonId ia = state_->ionOf(g.q0);
        const IonId ib = state_->ionOf(g.q1);
        if (state_->trapOf(ia) == state_->trapOf(ib))
            break;
        const MoveDecision move = router_.chooseMover(*state_, ia, ib);
        if (state_->freeSlots(move.dest) <= 0) {
            evictFrom(move.dest, move.stayer, 0);
            continue; // re-resolve: eviction may teleport payloads
        }
        TimeUs arrive = 0;
        performShuttle(move.mover, move.dest, 0, &arrive);
        ++result_.metrics.counts.shuttles;
    }
    emitter_->emitMs(g.q0, g.q1, 0, false);
}

void
Scheduler::evictFrom(TrapId dest, IonId keep, TimeUs ready)
{
    QCCD_FAULT_POINT("router.evict");
    options_.deadline.check("router.evict");

    // Victim: the ion whose payload is needed latest (unused payloads
    // first), never the gate partner we must keep.
    const ChainState &chain = state_->chain(dest);
    IonId victim = kInvalidId;
    size_t best_next = 0;
    for (IonId ion : chain.ions) {
        if (ion == keep)
            continue;
        const size_t next = nextGateIndex(state_->payloadOf(ion));
        if (victim == kInvalidId || next > best_next) {
            victim = ion;
            best_next = next;
        }
    }
    panicUnless(victim != kInvalidId, "no evictable ion in full trap");

    const TrapId refuge = router_.evictionTarget(*state_, dest, dest);
    TimeUs done = 0;
    performShuttle(victim, refuge, ready, &done);
    ++result_.metrics.counts.evictions;
    ++result_.metrics.counts.shuttles;
}

IonId
Scheduler::performShuttle(IonId ion, TrapId dest, TimeUs ready,
                          TimeUs *out_time)
{
    QCCD_FAULT_POINT("shuttle.emit");
    options_.deadline.check("shuttle.emit");

    const TrapId src = state_->trapOf(ion);
    panicUnless(src != kInvalidId && src != dest,
                "shuttle needs a trapped ion and a distinct destination");
    panicUnless(state_->freeSlots(dest) > 0,
                "shuttle destination is full; caller must evict first");
    const Path &path = router_.pathBetween(src, dest);
    panicUnless(!path.steps.empty() &&
                path.steps.front().kind == PathStep::Kind::Edge &&
                path.steps.back().kind == PathStep::Kind::Edge,
                "routed path must start and end with an edge");

    TimeUs t = ready;

    // Reorder the payload to the source exit end and split it off.
    const EdgeId first_edge = path.steps.front().id;
    const ChainEnd exit_end = state_->portEnd(src, first_edge);
    ion = emitter_->reorderToEnd(ion, exit_end, t, &t);
    IonId flying = kInvalidId;
    t = emitter_->emitSplit(src, exit_end, t, &flying);
    panicUnless(flying == ion, "source split detached an unexpected ion");

    // Walk the path.
    for (size_t i = 0; i < path.steps.size(); ++i) {
        const PathStep &step = path.steps[i];
        switch (step.kind) {
          case PathStep::Kind::Edge:
            t = emitter_->emitMove(step.id, flying, t);
            break;
          case PathStep::Kind::Junction:
            t = emitter_->emitJunction(step.id, flying, t);
            break;
          case PathStep::Kind::ThroughTrap: {
            const TrapId through = topo_.node(step.id).trapIndex;
            panicUnless(through != kInvalidId,
                        "through-trap step names a non-trap node");
            panicUnless(i > 0 && i + 1 < path.steps.size(),
                        "through-trap cannot begin or end a path");
            const EdgeId in_edge = path.steps[i - 1].id;
            const EdgeId out_edge = path.steps[i + 1].id;
            if (state_->chain(through).ions.empty()) {
                t = emitter_->emitTransit(through, flying, t);
                break;
            }
            // On a path graph the two ports always differ (the ion
            // crosses the whole chain); on general graphs both edges
            // can attach to the same chain end — e.g. a ring trap
            // whose neighbours both have smaller node ids — and the
            // pass-through degenerates to a touch-and-go: the ion
            // merges as the outermost ion of that end, the reorder
            // no-ops, and the split detaches it again.
            const ChainEnd entry = state_->portEnd(through, in_edge);
            const ChainEnd exit = state_->portEnd(through, out_edge);
            t = emitter_->emitMerge(through, entry, flying, t);
            ++result_.metrics.counts.trapPassThroughs;
            IonId carrier =
                emitter_->reorderToEnd(flying, exit, t, &t);
            t = emitter_->emitSplit(through, exit, t, &flying);
            panicUnless(flying == carrier,
                        "pass-through split detached the wrong ion");
            break;
          }
        }
    }

    // Merge at the destination.
    const EdgeId last_edge = path.steps.back().id;
    const ChainEnd entry_end = state_->portEnd(dest, last_edge);
    t = emitter_->emitMerge(dest, entry_end, flying, t);
    QCCD_DBG_ASSERT(state_->trapOf(flying) == dest,
                    "shuttle did not deliver the ion to its destination");
    QCCD_DBG_ASSERT(state_->freeSlots(dest) >= 0,
                    "shuttle overfilled the destination trap");
    *out_time = t;
    return flying;
}

} // namespace qccd
