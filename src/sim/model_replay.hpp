/**
 * @file
 * ModelFold, the only code that applies the heating model (paper
 * Section VII-B: k1 per split or merge, k2 per segment and junction)
 * and the MS-gate fidelity of Eq. 1 (Section VII-C), and the event log
 * that lets a staged run replay it.
 *
 * The fold holds the energies (per trap, plus the one ion in flight)
 * and accumulates the five model fields of SimResult: logFidelity,
 * zeroFidelityOps, sumBackgroundError, sumMotionalError and
 * maxChainEnergy. PrimitiveEmitter calls one step per primitive while
 * it schedules; with a ModelEvalLog set, each step first appends its
 * own event, so the log is exactly what the live fold saw.
 *
 * The scheduler never reads the model-only knobs (the rows of
 * kHardwareKnobs in models/params.hpp outside kScheduleKeyKnobs), so
 * two design points that agree on everything it reads fold the same
 * events. replayModelEval() applies one point's log to a fresh fold
 * under the other's knobs: a replay equals a full run because both are
 * the same fold over the same events (the staged-vs-scalar
 * differential in tests/test_sweep_engine.cpp checks it bit for bit).
 *
 * Unit-fidelity primitives add nothing to the log-fidelity sum (their
 * log is exactly +0.0, which cannot change a sum that is +0.0 or
 * negative), so transport steps only heat and a two-ion rotation has
 * no step.
 *
 * Single flight: Scheduler::performShuttle is the only place an ion
 * flies, and an eviction finishes before the mover's shuttle starts,
 * so one energy holds the ion in flight. Checked builds assert it: a
 * split only while nothing flies; a merge, move or junction crossing
 * only while one ion does.
 */

#ifndef QCCD_SIM_MODEL_REPLAY_HPP
#define QCCD_SIM_MODEL_REPLAY_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "models/model_tables.hpp"
#include "models/params.hpp"
#include "sim/metrics.hpp"

namespace qccd
{

/**
 * The events one ModelFold saw, in emission order. Recorded when a
 * ScheduleOptions passes a log; replayed by replayModelEval().
 */
class ModelEvalLog
{
  public:
    /** One folded event. */
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
    const std::vector<Event> &events() const { return events_; }

    /** Append @p ev (ModelFold's steps, in emission order). */
    void add(const Event &ev) { events_.push_back(ev); }

    /**
     * Chain-length bound the recording fold sized its ModelTables
     * with; the replay uses the same bound so both share one table
     * instance per parameterization (values are identical for any
     * bound — the tables are exact — this is purely for sharing).
     */
    void setMaxChain(int max_chain) { maxChain_ = max_chain; }
    int maxChain() const { return maxChain_; }

  private:
    std::vector<Event> events_;
    int maxChain_ = 0;
};

/** Applies the heating and fidelity models, one step per event. */
class ModelFold
{
  public:
    using Event = ModelEvalLog::Event;

    /**
     * @param hw parameterization whose models to apply
     * @param max_chain chain-length bound of the shared ModelTables
     * @param out metrics to fold into; its five model fields are zeroed
     *        here and every schedule-determined field is left alone
     * @param log when set, every step first appends its own event
     */
    ModelFold(const HardwareParams &hw, int max_chain, SimResult &out,
              ModelEvalLog *log = nullptr);

    /** MS gate on a @p chain_len ion chain in trap @p t, lasting
     *  @p phys_dur. @return its error terms (the trace prints them) */
    GateErrorBreakdown ms(TrapId t, int chain_len, TimeUs phys_dur)
    {
        record({Event::Kind::Ms, t, chain_len, phys_dur});
        const GateErrorBreakdown err =
            tables_->msError(phys_dur, chain_len, trapEnergy(t));
        const double fid = err.fidelity();
        out_.sumBackgroundError += err.background;
        out_.sumMotionalError += err.motional;
        addFidelity(fid, std::log(std::max(fid, kMinFidelity)));
        return err;
    }

    void oneQubit()
    {
        record({Event::Kind::OneQubit});
        addFidelity(tables_->fidelity().oneQubitFidelity(),
                    tables_->logOneQubitFidelity());
    }

    void measure()
    {
        record({Event::Kind::Measure});
        addFidelity(tables_->fidelity().measureFidelity(),
                    tables_->logMeasureFidelity());
    }

    /** Split one ion off trap @p t, leaving @p rest_ions behind. */
    void split(TrapId t, int rest_ions)
    {
        record({Event::Kind::Split, t, rest_ions});
        QCCD_DBG_ASSERT(!inFlight_, "split while an ion is in flight");
        QCCD_CHECKED_ONLY(inFlight_ = true;)
        Quanta &e = trapEnergy(t);
        if (rest_ions == 0) {
            // Last ion out: it keeps the chain energy plus the split
            // disturbance; the empty trap holds none.
            flight_ = e + heating().k1();
            e = 0;
        } else {
            const auto [rest, moved] =
                heating().afterSplit(e, rest_ions, 1);
            e = rest;
            seen(rest);
            flight_ = moved;
        }
        seen(flight_);
    }

    /** Merge the in-flight ion into trap @p t (recool applies). */
    void merge(TrapId t)
    {
        record({Event::Kind::Merge, t});
        QCCD_DBG_ASSERT(inFlight_, "merge with no ion in flight");
        QCCD_CHECKED_ONLY(inFlight_ = false;)
        Quanta &e = trapEnergy(t);
        e = heating().afterMerge(e, flight_) * recoolFactor_;
        seen(e);
    }

    /** Move the in-flight ion across @p segments segments. */
    void moves(int segments)
    {
        record({Event::Kind::Moves, kInvalidId, segments});
        QCCD_DBG_ASSERT(inFlight_, "move with no ion in flight");
        flight_ = heating().afterMoves(flight_, segments);
        seen(flight_);
    }

    /** Cross one junction with the in-flight ion. */
    void junction()
    {
        record({Event::Kind::Junction});
        QCCD_DBG_ASSERT(inFlight_, "junction crossing with no ion in flight");
        flight_ = heating().afterJunction(flight_);
        seen(flight_);
    }

    /**
     * IS hop on a @p chain_len > 2 ion chain in trap @p t: split off
     * the swapping pair, rotate it, merge it back. The hop's merge
     * does not recool.
     */
    void ionSwapHop(TrapId t, int chain_len)
    {
        record({Event::Kind::IonSwapHop, t, chain_len});
        Quanta &e = trapEnergy(t);
        const auto [rest, pair] =
            heating().afterSplit(e, chain_len - 2, 2);
        e = heating().afterMerge(rest, pair);
        seen(e);
    }

    /** Send a recorded event to its step (replay only). */
    void apply(const Event &ev);

    /** Chain energy of trap @p t. */
    Quanta energy(TrapId t) const
    {
        const auto idx = static_cast<size_t>(t);
        return idx < energies_.size() ? energies_[idx] : 0.0;
    }

    /** Energy of the in-flight ion (of the last one, between flights). */
    Quanta flight() const { return flight_; }

    const ModelTables &tables() const { return *tables_; }

  private:
    std::shared_ptr<const ModelTables> tables_;
    double recoolFactor_;
    SimResult &out_;
    ModelEvalLog *log_;
    std::vector<Quanta> energies_; ///< per trap, sized on first touch
    Quanta flight_ = 0;
    QCCD_CHECKED_ONLY(bool inFlight_ = false;)

    const HeatingModel &heating() const { return tables_->heating(); }

    void record(const Event &ev)
    {
        if (log_ != nullptr)
            log_->add(ev);
    }

    Quanta &trapEnergy(TrapId t)
    {
        const auto idx = static_cast<size_t>(t);
        if (idx >= energies_.size()) [[unlikely]]
            energies_.resize(idx + 1, 0.0);
        return energies_[idx];
    }

    void addFidelity(double fid, double log_fid)
    {
        if (fid <= 0)
            ++out_.zeroFidelityOps;
        out_.logFidelity += log_fid;
    }

    void seen(Quanta e)
    {
        out_.maxChainEnergy = std::max(out_.maxChainEnergy, e);
    }
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
