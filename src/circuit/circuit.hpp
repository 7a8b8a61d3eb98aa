/**
 * @file
 * The circuit intermediate representation: a named, validated, flat gate
 * sequence over a fixed number of qubits (paper Fig. 2c).
 */

#ifndef QCCD_CIRCUIT_CIRCUIT_HPP
#define QCCD_CIRCUIT_CIRCUIT_HPP

#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace qccd
{

/** A quantum program IR. */
class Circuit
{
  public:
    /**
     * @param num_qubits number of program qubits (>= 1)
     * @param name human-readable circuit name
     */
    explicit Circuit(int num_qubits, std::string name = "circuit");

    int numQubits() const { return numQubits_; }
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Append a gate; validates operand ranges. */
    void add(const Gate &gate);

    /** Size the gate storage for @p n gates in total. */
    void reserve(size_t n) { gates_.reserve(n); }

    /** Convenience builders (validate like add). @{ */
    void h(QubitId q) { add(Gate::one(Op::H, q)); }
    void x(QubitId q) { add(Gate::one(Op::X, q)); }
    void z(QubitId q) { add(Gate::one(Op::Z, q)); }
    void t(QubitId q) { add(Gate::one(Op::T, q)); }
    void tdg(QubitId q) { add(Gate::one(Op::Tdg, q)); }
    void rx(QubitId q, double a) { add(Gate::one(Op::RX, q, a)); }
    void ry(QubitId q, double a) { add(Gate::one(Op::RY, q, a)); }
    void rz(QubitId q, double a) { add(Gate::one(Op::RZ, q, a)); }
    void cx(QubitId c, QubitId t) { add(Gate::two(Op::CX, c, t)); }
    void cz(QubitId a, QubitId b) { add(Gate::two(Op::CZ, a, b)); }
    void cphase(QubitId a, QubitId b, double ang)
    { add(Gate::two(Op::CPhase, a, b, ang)); }
    void ms(QubitId a, QubitId b, double ang = 0)
    { add(Gate::two(Op::MS, a, b, ang)); }
    void swap(QubitId a, QubitId b) { add(Gate::two(Op::Swap, a, b)); }
    void measure(QubitId q) { add(Gate::measure(q)); }
    /** @} */

    /** Measure every qubit, in index order. */
    void measureAll();

    const std::vector<Gate> &gates() const { return gates_; }
    size_t size() const { return gates_.size(); }
    const Gate &gate(size_t i) const { return gates_[i]; }

  private:
    int numQubits_;
    std::string name_;
    std::vector<Gate> gates_;
};

} // namespace qccd

#endif // QCCD_CIRCUIT_CIRCUIT_HPP
