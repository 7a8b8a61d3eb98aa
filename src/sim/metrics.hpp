/**
 * @file
 * Metric accumulation for one simulated application execution.
 *
 * The simulator computes application fidelity as the product of the
 * fidelities of every operation (paper Section V-B); the product is kept
 * in log domain so deeply unreliable configurations (app fidelity below
 * 1e-300) still compare correctly instead of flushing to zero.
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
 * (exposed so ModelTables can precompute clamped logs bit-identically).
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

    /** Fold one scheduled op into counters/makespan/fidelity. */
    void noteOp(const PrimOp &op);

    /**
     * Metrics-only fast paths: identical accounting to noteOp without
     * requiring a populated PrimOp, for the no-trace schedule mode. The
     * caller passes log(max(fidelity, kMinFidelity)) precomputed — the
     * emitter memoizes it for the constant-fidelity op kinds — so the
     * accumulated sums match noteOp's bit for bit. Inline, so a caller
     * with a constant kind folds the kind switch away. @{
     */
    void noteMsOp(TimeUs end, TimeUs duration, bool for_comm,
                  double err_background, double err_motional,
                  double fidelity, double log_fidelity);
    void noteSimpleOp(PrimKind kind, TimeUs end, TimeUs duration,
                      bool for_comm, double fidelity,
                      double log_fidelity);
    /** @} */
};

inline void
SimResult::noteMsOp(TimeUs end, TimeUs duration, bool for_comm,
                    double err_background, double err_motional,
                    double fidelity, double log_fidelity)
{
    makespan = std::max(makespan, end);
    if (for_comm)
        ++counts.reorderMs;
    else
        ++counts.algorithmMs;
    sumBackgroundError += err_background;
    sumMotionalError += err_motional;

    if (for_comm)
        commBusy += duration;
    else
        computeBusy += duration;

    if (fidelity <= 0)
        ++zeroFidelityOps;
    logFidelity += log_fidelity;
}

inline void
SimResult::noteSimpleOp(PrimKind kind, TimeUs end, TimeUs duration,
                        bool for_comm, double fidelity,
                        double log_fidelity)
{
    makespan = std::max(makespan, end);

    switch (kind) {
      case PrimKind::GateMS:
        // MS gates carry error sums; they must go through noteMsOp.
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

    if (fidelity <= 0)
        ++zeroFidelityOps;
    logFidelity += log_fidelity;
}

} // namespace qccd

#endif // QCCD_SIM_METRICS_HPP
