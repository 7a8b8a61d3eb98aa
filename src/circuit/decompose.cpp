#include "circuit/decompose.hpp"

#include <numbers>

#include "common/error.hpp"

namespace qccd
{

namespace
{

constexpr double kPi = std::numbers::pi;

/**
 * Emit the ion-trap CX construction: one MS core conjugated by
 * single-qubit rotations (Maslov 2017, circuit 5).
 */
void
emitCx(Circuit &out, QubitId control, QubitId target)
{
    out.ry(control, kPi / 2);
    out.ms(control, target, kPi / 4);
    out.rx(control, -kPi / 2);
    out.rx(target, -kPi / 2);
    out.ry(control, -kPi / 2);
}

/** CZ = H(target) CX H(target). */
void
emitCz(Circuit &out, QubitId a, QubitId b)
{
    out.h(b);
    emitCx(out, a, b);
    out.h(b);
}

/**
 * Controlled-phase via two CX cores and RZ rotations (the textbook
 * two-CNOT construction).
 */
void
emitCPhase(Circuit &out, QubitId a, QubitId b, double angle)
{
    out.rz(a, angle / 2);
    emitCx(out, a, b);
    out.rz(b, -angle / 2);
    emitCx(out, a, b);
    out.rz(b, angle / 2);
}

/** SWAP via three CX cores. */
void
emitSwap(Circuit &out, QubitId a, QubitId b)
{
    emitCx(out, a, b);
    emitCx(out, b, a);
    emitCx(out, a, b);
}

} // namespace

int
msCostOf(Op op)
{
    switch (op) {
      case Op::MS: return 1;
      case Op::CX: return 1;
      case Op::CZ: return 1;
      case Op::CPhase: return 2;
      case Op::Swap: return 3;
      default: return 0;
    }
}

int
nativeCountOf(Op op)
{
    switch (op) {
      case Op::Barrier: return 0;
      case Op::CX: return 5;
      case Op::CZ: return 7;
      case Op::CPhase: return 13;
      case Op::Swap: return 15;
      default: return 1;
    }
}

Circuit
decomposeToNative(const Circuit &input)
{
    size_t native = 0;
    for (const Gate &g : input.gates())
        native += static_cast<size_t>(nativeCountOf(g.op));
    Circuit out(input.numQubits(), input.name());
    out.reserve(native);
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
    return out;
}

} // namespace qccd
