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
 *
 * The decomposition is written once, as decomposeInto() over any gate
 * sink. decomposeToNative() is its Circuit sink; the result store's
 * lowered-circuit digest is a hashing sink, so a key is computed from
 * the source circuit without building the lowered one.
 */

#ifndef QCCD_CIRCUIT_DECOMPOSE_HPP
#define QCCD_CIRCUIT_DECOMPOSE_HPP

#include <numbers>

#include "circuit/circuit.hpp"
#include "common/error.hpp"

namespace qccd
{

/** The angles the decomposition emits on its own. @{ */
inline constexpr double kHalfPi = std::numbers::pi / 2;
inline constexpr double kQuarterPi = std::numbers::pi / 4;
/** @} */

namespace decompose_detail
{

template <class Sink>
void
oneQubit(Sink &out, Op op, QubitId q, double angle = 0)
{
    out.add(Gate{op, q, kInvalidId, angle});
}

/**
 * Emit the ion-trap CX construction: one MS core conjugated by
 * single-qubit rotations (Maslov 2017, circuit 5).
 */
template <class Sink>
void
emitCx(Sink &out, QubitId control, QubitId target)
{
    oneQubit(out, Op::RY, control, kHalfPi);
    out.add(Gate{Op::MS, control, target, kQuarterPi});
    oneQubit(out, Op::RX, control, -kHalfPi);
    oneQubit(out, Op::RX, target, -kHalfPi);
    oneQubit(out, Op::RY, control, -kHalfPi);
}

/** CZ = H(target) CX H(target). */
template <class Sink>
void
emitCz(Sink &out, QubitId a, QubitId b)
{
    oneQubit(out, Op::H, b);
    emitCx(out, a, b);
    oneQubit(out, Op::H, b);
}

/**
 * Controlled-phase via two CX cores and RZ rotations (the textbook
 * two-CNOT construction).
 */
template <class Sink>
void
emitCPhase(Sink &out, QubitId a, QubitId b, double angle)
{
    oneQubit(out, Op::RZ, a, angle / 2);
    emitCx(out, a, b);
    oneQubit(out, Op::RZ, b, -angle / 2);
    emitCx(out, a, b);
    oneQubit(out, Op::RZ, b, angle / 2);
}

/** SWAP via three CX cores. */
template <class Sink>
void
emitSwap(Sink &out, QubitId a, QubitId b)
{
    emitCx(out, a, b);
    emitCx(out, b, a);
    emitCx(out, a, b);
}

} // namespace decompose_detail

/**
 * Feed the native gates equivalent to @p input, in order, to
 * @p out.add(const Gate &). Barriers are dropped; native gates pass
 * through unchanged. Emitted gates are in range because @p input's
 * gates are.
 */
template <class Sink>
void
decomposeInto(const Circuit &input, Sink &out)
{
    using namespace decompose_detail;
    for (const Gate &g : input.gates()) {
        if (g.op == Op::Barrier)
            continue;
        if (isNative(g.op)) {
            out.add(g);
            continue;
        }
        switch (g.op) {
          case Op::CX:
            emitCx(out, g.q0, g.q1);
            break;
          case Op::CZ:
            emitCz(out, g.q0, g.q1);
            break;
          case Op::CPhase:
            emitCPhase(out, g.q0, g.q1, g.param);
            break;
          case Op::Swap:
            emitSwap(out, g.q0, g.q1);
            break;
          default:
            throw InternalError("no decomposition for op " +
                                opName(g.op));
        }
    }
}

/**
 * Return a circuit equivalent to @p input using only native ops
 * (decomposeInto()'s Circuit sink).
 */
Circuit decomposeToNative(const Circuit &input);

/** Number of MS gates the decomposition emits for one @p op. */
int msCostOf(Op op);

/** Number of native gates the decomposition emits for one @p op, so
 *  decomposeToNative() sizes its output once. */
int nativeCountOf(Op op);

} // namespace qccd

#endif // QCCD_CIRCUIT_DECOMPOSE_HPP
