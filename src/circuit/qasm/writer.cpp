#include "circuit/qasm/writer.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace qccd::qasm
{

namespace
{

std::string
formatAngle(double angle)
{
    std::ostringstream out;
    out.precision(17);
    out << angle;
    return out.str();
}

} // namespace

std::string
write(const Circuit &circuit)
{
    std::ostringstream out;
    out << "OPENQASM 2.0;\n";
    out << "include \"qelib1.inc\";\n";
    out << "// " << circuit.name() << "\n";
    out << "qreg q[" << circuit.numQubits() << "];\n";
    out << "creg c[" << circuit.numQubits() << "];\n";

    int next_clbit = 0;
    for (const Gate &g : circuit.gates()) {
        switch (g.op) {
          case Op::Barrier:
            out << "barrier q;\n";
            continue;
          case Op::Measure:
            out << "measure q[" << g.q0 << "] -> c[" << next_clbit++
                << "];\n";
            continue;
          case Op::MS:
            out << "rxx(" << formatAngle(g.param) << ") q[" << g.q0
                << "], q[" << g.q1 << "];\n";
            continue;
          case Op::CPhase:
            out << "cp(" << formatAngle(g.param) << ") q[" << g.q0
                << "], q[" << g.q1 << "];\n";
            continue;
          default:
            break;
        }
        out << opName(g.op);
        if (opHasParam(g.op))
            out << "(" << formatAngle(g.param) << ")";
        out << " q[" << g.q0 << "]";
        if (g.isTwoQubit())
            out << ", q[" << g.q1 << "]";
        out << ";\n";
    }
    return out.str();
}

void
writeFile(const Circuit &circuit, const std::string &path)
{
    std::ofstream out(path);
    if (!out.good())
        throw ConfigError("cannot write QASM file '" + path + "'");
    out << write(circuit);
    if (!out.good())
        throw ConfigError("error while writing QASM file '" + path + "'");
}

} // namespace qccd::qasm
