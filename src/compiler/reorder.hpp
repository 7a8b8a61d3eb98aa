/**
 * @file
 * Primitive operation emission, including chain reordering (paper
 * Section IV-C).
 *
 * PrimitiveEmitter is the single place where primitive QCCD operations
 * are stamped onto resource timelines, counted, and recorded in the
 * trace. Both the scheduler's gate/shuttle orchestration and the
 * chain-reorder expansion (GS or IS) go through it, so every cost is
 * accounted exactly once. It charges heating and fidelity by calling
 * one step of its ModelFold (sim/model_replay.hpp) per primitive and
 * computes no energy or error term itself.
 */

#ifndef QCCD_COMPILER_REORDER_HPP
#define QCCD_COMPILER_REORDER_HPP

#include <vector>

#include "models/params.hpp"
#include "sim/device_state.hpp"
#include "sim/metrics.hpp"
#include "sim/model_replay.hpp"
#include "sim/trace.hpp"

namespace qccd
{

/** Stamps primitive ops onto the device, charging time/heat/fidelity. */
class PrimitiveEmitter
{
  public:
    /**
     * @param state mutable device state (chains, payloads, timelines)
     * @param hw hardware parameterization
     * @param result metric accumulator to fold ops into (the emitter
     *        counts ops; its ModelFold accumulates the model fields)
     * @param trace op trace to append to (may be nullptr to skip)
     * @param zero_comm_times when true, communication ops (shuttle
     *        primitives and reorder gates) take zero time but still heat
     *        the chains; used for the compute/communication runtime
     *        decomposition of Fig. 6b
     * @param model_log optional model-evaluation log (see
     *        sim/model_replay.hpp): the fold records every event it
     *        sees, in emission order, so the staged toolflow can
     *        re-evaluate new model knobs without re-scheduling
     */
    PrimitiveEmitter(DeviceState &state, const HardwareParams &hw,
                     SimResult &result, Trace *trace,
                     bool zero_comm_times = false,
                     ModelEvalLog *model_log = nullptr);

    /** The heating and fidelity fold (chain energies, model fields). */
    const ModelFold &model() const { return fold_; }

    /** Per-qubit data-ready times. @{ */
    std::vector<TimeUs> &qubitReady() { return qubitReady_; }
    const std::vector<TimeUs> &qubitReady() const { return qubitReady_; }
    /** @} */

    /**
     * Emit a two-qubit MS gate between the ions carrying @p qa and
     * @p qb, which must be co-located.
     *
     * @param ready earliest start (maxed with both qubits' ready times)
     * @param for_comm true when the gate implements GS reordering
     * @return gate end time
     */
    TimeUs emitMs(QubitId qa, QubitId qb, TimeUs ready, bool for_comm);

    /** Emit a single-qubit gate on @p q. @return end time */
    TimeUs emitOneQubit(QubitId q, TimeUs ready);

    /** Emit a measurement of @p q. @return end time */
    TimeUs emitMeasure(QubitId q, TimeUs ready);

    /**
     * Split the ion at @p end off trap @p t into flight.
     *
     * @param[out] out_ion the detached ion
     * @return end time
     */
    TimeUs emitSplit(TrapId t, ChainEnd end, TimeUs ready,
                     IonId *out_ion);

    /** Merge in-flight @p ion into trap @p t at @p end. @return end */
    TimeUs emitMerge(TrapId t, ChainEnd end, IonId ion, TimeUs ready);

    /** Move in-flight @p ion across edge @p e. @return end time */
    TimeUs emitMove(EdgeId e, IonId ion, TimeUs ready);

    /** Cross junction @p n with in-flight @p ion. @return end time */
    TimeUs emitJunction(NodeId n, IonId ion, TimeUs ready);

    /** Pass in-flight @p ion through the empty trap @p t. @return end */
    TimeUs emitTransit(TrapId t, IonId ion, TimeUs ready);

    /**
     * Bring the logical payload of @p ion to @p end of its chain using
     * the configured reordering method. Under GS the payload teleports
     * to the ion already at that end; under IS the ion physically hops.
     *
     * @param[out] out_time completion time
     * @return the ion now carrying the payload at the chain end
     */
    IonId reorderToEnd(IonId ion, ChainEnd end, TimeUs ready,
                       TimeUs *out_time);

  private:
    DeviceState &state_;
    const HardwareParams &hw_;

    /**
     * Its tables are shared read-only across all emitters with the
     * same parameterization (sized to the device's largest trap plus
     * one, since a linear pass-through can briefly exceed capacity).
     */
    ModelFold fold_;
    SimResult &result_;
    Trace *trace_;
    bool zeroComm_;
    std::vector<TimeUs> qubitReady_;

    /** Scale a communication duration per the decomposition mode. */
    TimeUs commDur(TimeUs d) const { return zeroComm_ ? 0.0 : d; }

    /**
     * Count a non-MS primitive and append it to the trace only when
     * tracing is on — the no-trace schedule mode skips building the
     * PrimOp entirely. @p fid is the fidelity the trace prints.
     */
    void recordSimple(PrimKind kind, TimeUs start, TimeUs duration,
                      TrapId trap, EdgeId edge, NodeId junction,
                      IonId ion, QubitId q0, bool for_comm, double fid);

    /** One IS hop: split/rotate/merge around the swapping pair. */
    TimeUs emitIonSwapHop(IonId ion, ChainEnd end, TimeUs ready);
};

} // namespace qccd

#endif // QCCD_COMPILER_REORDER_HPP
