/**
 * @file
 * Motional-mode heating model (paper Section VII-B).
 *
 * Every ion chain is treated as a quantum oscillator whose energy, in
 * units of motional quanta, starts at zero and only grows as shuttling
 * operations act on it:
 *
 *  - split: the parent energy divides proportionally to the sub-chain ion
 *    counts (conservation of energy), then each sub-chain gains k1;
 *  - merge: the merged chain holds the sum of both energies plus k1
 *    (the cost of stopping the chains and preventing collisions);
 *  - move: the transported chain gains k2 per segment traversed;
 *  - junction crossing: gains k2 (assumption, see DESIGN.md).
 *
 * HardwareParams' defaults k1 = 0.1 and k2 = 0.01 are the paper's
 * values: one order of magnitude below the per-operation heating
 * Honeywell measured on its 4-qubit QCCD system, anticipating the
 * improvement needed for 50-100 qubit devices.
 */

#ifndef QCCD_MODELS_HEATING_HPP
#define QCCD_MODELS_HEATING_HPP

#include <utility>

#include "common/types.hpp"

namespace qccd
{

/** Per-operation motional energy bookkeeping rules. */
class HeatingModel
{
  public:
    /**
     * HardwareParams::validate() checks these knobs' ranges.
     *
     * @param k1 quanta added to each chain by a split or merge
     * @param k2 quanta added per segment (and per junction) moved
     */
    explicit HeatingModel(Quanta k1, Quanta k2) : k1_(k1), k2_(k2) {}

    /**
     * Energies of the two sub-chains after splitting a parent chain.
     *
     * @param parent_energy energy of the chain before the split
     * @param ions_a ions in the first sub-chain (>= 1)
     * @param ions_b ions in the second sub-chain (>= 1)
     * @return pair of sub-chain energies, in the same order
     */
    std::pair<Quanta, Quanta> afterSplit(Quanta parent_energy, int ions_a,
                                         int ions_b) const;

    /** Energy of the chain formed by merging two chains. */
    Quanta afterMerge(Quanta energy_a, Quanta energy_b) const;

    /** Energy of a chain after moving across @p segments segments. */
    Quanta afterMove(Quanta energy, int segments) const;

    /**
     * Energy after @p segments successive single-segment moves, i.e.
     * afterMove(. , 1) applied @p segments times. Bit-identical to that
     * loop: the recurrence e += k2 cannot be collapsed to e + k2*n in
     * floating point (the partial sums round differently), so the model
     * applies it stepwise rather than approximating with the closed
     * form afterMove(e, n).
     */
    Quanta afterMoves(Quanta energy, int segments) const;

    /** Energy of a chain after crossing one junction. */
    Quanta afterJunction(Quanta energy) const;

    Quanta k1() const { return k1_; }
    Quanta k2() const { return k2_; }

  private:
    Quanta k1_;
    Quanta k2_;
};

} // namespace qccd

#endif // QCCD_MODELS_HEATING_HPP
