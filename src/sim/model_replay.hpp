/**
 * @file
 * Model-evaluation replay: re-run the physical models over a recorded
 * schedule without re-scheduling.
 *
 * The scheduler's decisions (gate order, routing, evictions, every
 * primitive's duration and timeline placement) depend on the gate/
 * shuttle timing knobs and the microarchitecture — but never on the
 * model-only knobs (the rows of kHardwareKnobs in models/params.hpp
 * outside kScheduleKeyKnobs). Those knobs only feed the energy
 * trajectory and the fidelity accumulators. Two design points that
 * agree on everything the scheduler reads therefore emit the *same*
 * primitive sequence, and the second point's metrics can be produced
 * by replaying the first point's op stream under the new models.
 *
 * ModelEvalLog is that op stream: PrimitiveEmitter appends one compact
 * event per model-relevant primitive (in emission order), and
 * replayModelEval() folds a new HardwareParams over the events,
 * recomputing exactly the model-dependent SimResult fields —
 * logFidelity, zeroFidelityOps, sumBackgroundError, sumMotionalError,
 * maxChainEnergy — while every schedule-determined field (makespan, op
 * counts, busy times, effectiveBuffer) is frozen from the base run.
 *
 * Bit-identity contract: replayed metrics equal a from-scratch run of
 * the same schedule bit for bit. The replay accumulates in emission
 * order (float addition is not associative), applies the heating
 * recurrences stepwise exactly as DeviceState saw them, and skips only
 * unit-fidelity ops — whose log-fidelity contribution is exactly +0.0
 * and cannot change any accumulator bit (the log-fidelity sum is +0.0
 * or strictly negative, never -0.0). Enforced by the staged-vs-scalar
 * differential in tests/test_sweep_engine.cpp.
 */

#ifndef QCCD_SIM_MODEL_REPLAY_HPP
#define QCCD_SIM_MODEL_REPLAY_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "models/params.hpp"
#include "sim/metrics.hpp"

namespace qccd
{

/**
 * Compact record of every model-relevant primitive of one schedule, in
 * emission order. Recorded by PrimitiveEmitter when a ScheduleOptions
 * passes a log; replayed by replayModelEval(). Unit-fidelity ops that
 * do not touch chain energy (GS payload swaps aside from their MS
 * gates, rotations of two-ion chains) are not recorded — they cannot
 * change any model-dependent accumulator.
 */
class ModelEvalLog
{
  public:
    /** One recorded primitive. */
    struct Event
    {
        enum class Kind : std::uint8_t
        {
            Ms,         ///< MS gate: trap, chain length, physical dur
            OneQubit,   ///< single-qubit gate
            Measure,    ///< measurement
            Split,      ///< split: trap, ions remaining (0 = last ion)
            Merge,      ///< merge into trap (recool applies)
            Moves,      ///< in-flight heating over `a` segments
            Junction,   ///< in-flight junction-crossing heating
            IonSwapHop, ///< IS hop on a chain of `a` > 2 ions
        };

        Kind kind;
        TrapId trap = kInvalidId;
        int a = 0;          ///< chainLen / restIons / segments
        TimeUs physDur = 0; ///< Ms only: physical gate duration
    };

    void clear() { events_.clear(); }
    bool empty() const { return events_.empty(); }
    const std::vector<Event> &events() const { return events_; }

    /**
     * Chain-length bound the recording emitter sized its ModelTables
     * with; the replay uses the same bound so both share one table
     * instance per parameterization (values are identical for any
     * bound — the tables are exact — this is purely for sharing).
     */
    void setMaxChain(int max_chain) { maxChain_ = max_chain; }
    int maxChain() const { return maxChain_; }

    /** Recording hooks, called by PrimitiveEmitter in emission order.
     *  @{ */
    void noteMs(TrapId t, int chain_len, TimeUs phys_dur)
    {
        events_.push_back({Event::Kind::Ms, t, chain_len, phys_dur});
    }
    void noteOneQubit()
    {
        events_.push_back({Event::Kind::OneQubit, kInvalidId, 0, 0});
    }
    void noteMeasure()
    {
        events_.push_back({Event::Kind::Measure, kInvalidId, 0, 0});
    }
    void noteSplit(TrapId t, int rest_ions)
    {
        events_.push_back({Event::Kind::Split, t, rest_ions, 0});
    }
    void noteMerge(TrapId t)
    {
        events_.push_back({Event::Kind::Merge, t, 0, 0});
    }
    void noteMoves(int segments)
    {
        events_.push_back({Event::Kind::Moves, kInvalidId, segments, 0});
    }
    void noteJunction()
    {
        events_.push_back({Event::Kind::Junction, kInvalidId, 0, 0});
    }
    void noteIonSwapHop(TrapId t, int chain_len)
    {
        events_.push_back({Event::Kind::IonSwapHop, t, chain_len, 0});
    }
    /** @} */

  private:
    std::vector<Event> events_;
    int maxChain_ = 0;
};

/**
 * Re-evaluate the physical models of @p hw over the recorded schedule
 * @p log, starting from @p base (the recording run's metrics).
 *
 * @return @p base with the five model-dependent fields recomputed;
 *         all schedule-determined fields are copied through unchanged
 * @pre @p hw agrees with the recording run's parameters on every knob
 *      the scheduler reads (kScheduleKeyKnobs in models/params.hpp) —
 *      only the model-only knobs may differ
 */
SimResult replayModelEval(const ModelEvalLog &log,
                          const HardwareParams &hw,
                          const SimResult &base);

} // namespace qccd

#endif // QCCD_SIM_MODEL_REPLAY_HPP
