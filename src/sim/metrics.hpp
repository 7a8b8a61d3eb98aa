/**
 * @file
 * Metric accumulation for one simulated application execution.
 *
 * The simulator computes application fidelity as the product of the
 * fidelities of every operation (paper Section V-B); the product is kept
 * in log domain so deeply unreliable configurations (app fidelity below
 * 1e-300) still compare correctly instead of flushing to zero.
 *
 * SimResult has two writers. PrimitiveEmitter folds the
 * schedule-determined half (makespan, op counts, busy times) through
 * noteOp; ModelFold (sim/model_replay.hpp) accumulates the five model
 * fields (logFidelity, zeroFidelityOps, maxChainEnergy and the two
 * error sums), live or in a replay.
 */

#ifndef QCCD_SIM_METRICS_HPP
#define QCCD_SIM_METRICS_HPP

#include <algorithm>

#include "sim/trace.hpp"

namespace qccd
{

/** Operation counters over one run. */
struct OpCounts
{
    long algorithmMs = 0;   ///< MS gates from the program
    long reorderMs = 0;     ///< MS gates inserted for GS reordering
    long oneQubit = 0;
    long measurements = 0;
    long splits = 0;
    long merges = 0;
    long moves = 0;         ///< edge traversals
    long segmentsMoved = 0; ///< segments covered by those traversals
    long junctionCrossings = 0;
    long rotations = 0;     ///< IS hop rotations
    long transits = 0;      ///< empty-trap pass-throughs
    long shuttles = 0;      ///< complete ion trips between traps
    long evictions = 0;     ///< make-room shuttles
    long trapPassThroughs = 0; ///< merge+split detours at full traps

    long totalMs() const { return algorithmMs + reorderMs; }
};

/**
 * Fidelity floor applied inside the log product so it stays finite
 * (exposed so ModelTables can precompute clamped logs bit-identically
 * with ModelFold's per-gate clamp).
 */
constexpr double kMinFidelity = 1e-15;

/** Aggregate results of one simulated execution. */
struct SimResult
{
    TimeUs makespan = 0;      ///< application runtime
    double logFidelity = 0;   ///< sum of log op fidelities
    long zeroFidelityOps = 0; ///< ops whose modeled fidelity hit <= 0

    OpCounts counts;

    /** Max chain motional energy seen anywhere during the run. */
    Quanta maxChainEnergy = 0;

    /** Summed MS-gate error terms, for the Fig. 6g decomposition. @{ */
    double sumBackgroundError = 0;
    double sumMotionalError = 0;
    /** @} */

    /** Busy-time sums by class (parallel ops overlap). @{ */
    TimeUs computeBusy = 0;
    TimeUs commBusy = 0;
    /** @} */

    int effectiveBuffer = 0; ///< buffer slots the mapper achieved

    /** Application fidelity exp(logFidelity). */
    double fidelity() const;

    /** Mean per-MS-gate background error (Fig. 6g series). */
    double meanBackgroundError() const;

    /** Mean per-MS-gate motional error (Fig. 6g series). */
    double meanMotionalError() const;

    /**
     * Fold one scheduled op of @p kind, ending at @p end, into the
     * makespan, the op counts and the busy times. Inline, so a caller
     * with a constant kind folds the kind switch away.
     */
    void noteOp(PrimKind kind, TimeUs end, TimeUs duration,
                bool for_comm);
};

inline void
SimResult::noteOp(PrimKind kind, TimeUs end, TimeUs duration,
                  bool for_comm)
{
    makespan = std::max(makespan, end);

    switch (kind) {
      case PrimKind::GateMS:
        if (for_comm)
            ++counts.reorderMs;
        else
            ++counts.algorithmMs;
        break;
      case PrimKind::Gate1Q:
        ++counts.oneQubit;
        break;
      case PrimKind::Measure:
        ++counts.measurements;
        break;
      case PrimKind::Split:
        ++counts.splits;
        break;
      case PrimKind::Merge:
        ++counts.merges;
        break;
      case PrimKind::Move:
        ++counts.moves;
        break;
      case PrimKind::JunctionCross:
        ++counts.junctionCrossings;
        break;
      case PrimKind::Rotate:
        ++counts.rotations;
        break;
      case PrimKind::Transit:
        ++counts.transits;
        break;
    }

    if (for_comm)
        commBusy += duration;
    else
        computeBusy += duration;
}

} // namespace qccd

#endif // QCCD_SIM_METRICS_HPP
