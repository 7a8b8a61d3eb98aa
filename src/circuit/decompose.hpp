/**
 * @file
 * Lowering from the general IR gate set to the native trapped-ion basis
 * {one-qubit rotations, MS, measure}.
 *
 * Decompositions follow the standard ion-trap constructions (Maslov
 * 2017): CX and CZ each lower to one MS gate plus single-qubit
 * rotations; CPhase lowers to two MS-layer equivalents (two CX-like MS
 * cores plus rotations), which is how the paper's QFT arrives at
 * 64*63 = 4032 two-qubit gates; SWAP lowers to three MS cores.
 */

#ifndef QCCD_CIRCUIT_DECOMPOSE_HPP
#define QCCD_CIRCUIT_DECOMPOSE_HPP

#include "circuit/circuit.hpp"

namespace qccd
{

/**
 * Return a circuit equivalent to @p input using only native ops.
 *
 * Barriers are dropped; native gates pass through unchanged.
 */
Circuit decomposeToNative(const Circuit &input);

/** Number of MS gates the decomposition emits for one @p op. */
int msCostOf(Op op);

/** Number of native gates the decomposition emits for one @p op, so
 *  decomposeToNative() sizes its output once. */
int nativeCountOf(Op op);

} // namespace qccd

#endif // QCCD_CIRCUIT_DECOMPOSE_HPP
