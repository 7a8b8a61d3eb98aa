/** @file Unit tests for the Circuit IR container. */

#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "common/error.hpp"

namespace qccd
{
namespace
{

TEST(Circuit, BuildsAndStoresGates)
{
    Circuit c(3, "demo");
    c.h(0);
    c.cx(0, 1);
    c.rz(2, 0.25);
    c.measure(1);

    EXPECT_EQ(c.numQubits(), 3);
    EXPECT_EQ(c.name(), "demo");
    ASSERT_EQ(c.size(), 4u);
    EXPECT_EQ(c.gate(0).op, Op::H);
    EXPECT_EQ(c.gate(1).op, Op::CX);
    EXPECT_EQ(c.gate(2).op, Op::RZ);
    EXPECT_EQ(c.gate(3).op, Op::Measure);
}

TEST(Circuit, RejectsOutOfRangeOperands)
{
    Circuit c(2);
    EXPECT_THROW(c.h(2), ConfigError);
    EXPECT_THROW(c.h(-1), ConfigError);
    EXPECT_THROW(c.cx(0, 5), ConfigError);
}

TEST(Circuit, RejectsDegenerateTwoQubitGate)
{
    Circuit c(2);
    Gate g;
    g.op = Op::CX;
    g.q0 = 1;
    g.q1 = 1;
    EXPECT_THROW(c.add(g), ConfigError);
}

/** The ConfigError text Circuit::add raises for @p g, or "(no error)". */
std::string
addDiagnostic(Circuit &c, const Gate &g)
{
    try {
        c.add(g);
        return "(no error)";
    } catch (const ConfigError &err) {
        return err.what();
    }
}

TEST(Circuit, OperandDiagnosticsNameTheGate)
{
    Circuit c(2);
    EXPECT_EQ(addDiagnostic(c, Gate::one(Op::H, 2)),
              "gate operand q0 out of range in h q2");
    EXPECT_EQ(addDiagnostic(c, Gate::two(Op::CX, 0, 5)),
              "gate operand q1 out of range in cx q0, q5");
    // Gate::two rejects equal operands itself (InternalError), so the
    // degenerate gate is built by hand to reach Circuit::add's check.
    Gate same;
    same.op = Op::CX;
    same.q0 = 1;
    same.q1 = 1;
    EXPECT_EQ(addDiagnostic(c, same),
              "two-qubit gate operands must differ in cx q1, q1");
    EXPECT_EQ(c.size(), 0u);
}

TEST(Circuit, MeasureAllCoversEveryQubit)
{
    Circuit c(4);
    c.measureAll();
    ASSERT_EQ(c.size(), 4u);
    for (size_t i = 0; i < c.size(); ++i) {
        EXPECT_TRUE(c.gate(i).isMeasure());
        EXPECT_EQ(c.gate(i).q0, static_cast<QubitId>(i));
    }
}

TEST(Circuit, NeedsAtLeastOneQubit)
{
    EXPECT_THROW(Circuit(0), ConfigError);
    EXPECT_NO_THROW(Circuit(1));
}

TEST(Circuit, SetNameUpdates)
{
    Circuit c(1);
    c.setName("renamed");
    EXPECT_EQ(c.name(), "renamed");
}

} // namespace
} // namespace qccd
