#include "circuit/decompose.hpp"

namespace qccd
{

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
    decomposeInto(input, out);
    return out;
}

} // namespace qccd
