/** @file Robustness tests for the OpenQASM frontend: truncated inputs,
 *  deep nesting, unusual-but-legal formatting. The parser must reject
 *  bad input with ConfigError and never crash. */

#include <gtest/gtest.h>

#include "circuit/qasm/parser.hpp"
#include "circuit/qasm/writer.hpp"
#include "common/error.hpp"

namespace qccd::qasm
{
namespace
{

TEST(QasmRobustness, TruncatedPrefixesNeverCrash)
{
    const std::string program =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n"
        "gate gg a, b { h a; cx a, b; }\ngg q[0], q[1];\n"
        "rz(pi/4) q[2];\nmeasure q[0] -> c[0];\n";
    for (size_t len = 0; len <= program.size(); ++len) {
        const std::string prefix = program.substr(0, len);
        try {
            parse(prefix);
        } catch (const ConfigError &) {
            // Rejection is fine; crashes or other exception types are
            // not.
        }
    }
}

TEST(QasmRobustness, WeirdWhitespaceAccepted)
{
    const Circuit c = parse(
        "OPENQASM\t2.0 ;\n\n\nqreg\nq[2];h q[0]\n;cx q[0],\nq[1];");
    EXPECT_EQ(c.size(), 2u);
}

TEST(QasmRobustness, CommentsEverywhere)
{
    const Circuit c = parse(
        "// leading\nqreg q[2]; // decl\n// between\nh q[0]; // gate\n");
    EXPECT_EQ(c.size(), 1u);
}

TEST(QasmRobustness, DeeplyNestedAngleParens)
{
    std::string expr = "1.0";
    for (int i = 0; i < 40; ++i)
        expr = "(" + expr + "+0)";
    const Circuit c = parse("qreg q[1]; rz(" + expr + ") q[0];");
    EXPECT_DOUBLE_EQ(c.gate(0).param, 1.0);
}

TEST(QasmRobustness, ManyNestedUserGates)
{
    std::string program = "qreg q[2];\ngate g0 a, b { cx a, b; }\n";
    for (int i = 1; i < 20; ++i) {
        program += "gate g" + std::to_string(i) + " a, b { g" +
                   std::to_string(i - 1) + " a, b; g" +
                   std::to_string(i - 1) + " b, a; }\n";
    }
    program += "g5 q[0], q[1];\n";
    const Circuit c = parse(program);
    EXPECT_EQ(c.size(), 32u); // 2^5 inlined CX gates
}

TEST(QasmRobustness, HugeRegisterIndexRejected)
{
    EXPECT_THROW(parse("qreg q[4]; h q[4];"), ConfigError);
    EXPECT_THROW(parse("qreg q[4]; h q[-1];"), ConfigError);
}

/** The ConfigError text parse() raises for @p program, or "(no error)". */
std::string
parseDiagnostic(const std::string &program)
{
    try {
        parse(program);
        return "(no error)";
    } catch (const ConfigError &err) {
        return err.what();
    }
}

TEST(QasmRobustness, NumberLiteralsParseWhole)
{
    // A literal must be one whole number: no partial parse, no
    // std::out_of_range escaping the ConfigError contract.
    EXPECT_EQ(parseDiagnostic("qreg q[1]; rz(1e999) q[0];"),
              "QASM parse error at line 1, column 15: number '1e999' is "
              "out of range");
    EXPECT_EQ(parseDiagnostic("qreg q[1]; rz(1e-400) q[0];"),
              "QASM parse error at line 1, column 15: number '1e-400' is "
              "out of range");
    EXPECT_EQ(parseDiagnostic("qreg q[1]; rz(1.2.3) q[0];"),
              "QASM parse error at line 1, column 15: malformed number "
              "'1.2.3'");
    EXPECT_EQ(parseDiagnostic("qreg q[1];\n rz(1e) q[0];"),
              "QASM parse error at line 2, column 5: malformed number "
              "'1e'");
    EXPECT_EQ(parseDiagnostic("qreg q[1]; rz(2e+) q[0];"),
              "QASM parse error at line 1, column 15: malformed number "
              "'2e+'");
}

TEST(QasmRobustness, ValidLiteralsKeepTheirExactValue)
{
    const Circuit c = parse("qreg q[1]; rz(0.1) q[0]; rz(.5) q[0];"
                            " rz(5.) q[0]; rz(2.5E+2) q[0];"
                            " rz(1e-3) q[0]; rz(7) q[0];"
                            " rz(4e-320) q[0];");
    ASSERT_EQ(c.size(), 7u);
    // Exact comparisons: the parsed double must be the one the C++
    // compiler gives the same literal.
    EXPECT_EQ(c.gate(0).param, 0.1);
    EXPECT_EQ(c.gate(1).param, .5);
    EXPECT_EQ(c.gate(2).param, 5.);
    EXPECT_EQ(c.gate(3).param, 2.5E+2);
    EXPECT_EQ(c.gate(4).param, 1e-3);
    EXPECT_EQ(c.gate(5).param, 7.0);
    EXPECT_EQ(c.gate(6).param, 4e-320); // subnormal, still in range
}

TEST(QasmRobustness, IntegerLiteralsRangeCheckedBeforeNarrowing)
{
    EXPECT_EQ(parseDiagnostic("qreg q[4294967298];"),
              "QASM parse error at line 1, column 8: qreg 'q' of size "
              "4294967298 takes the program past 2147483647 qubits");
    // The running qubit total cannot overflow either.
    EXPECT_EQ(parseDiagnostic("qreg a[2147483647]; qreg b[1];"),
              "QASM parse error at line 1, column 28: qreg 'b' of size 1 "
              "takes the program past 2147483647 qubits");
    EXPECT_EQ(parseDiagnostic("qreg q[4]; h q[4294967296];"),
              "QASM parse error at line 1, column 27: index 4294967296 "
              "out of range for qreg 'q'");
    EXPECT_EQ(parseDiagnostic("qreg q[4]; h q[4];"),
              "QASM parse error at line 1, column 18: index 4 out of "
              "range for qreg 'q'");
    EXPECT_EQ(parseDiagnostic("qreg q[0];"),
              "qreg 'q' must have positive size");
    // Classical registers are not modeled, so their size is never
    // narrowed and any literal is accepted.
    EXPECT_EQ(parse("qreg q[1]; creg c[99999999999]; h q[0];").size(),
              1u);
}

TEST(QasmRobustness, SelfInteractingGateRejected)
{
    EXPECT_THROW(parse("qreg q[2]; cx q[1], q[1];"), ConfigError);
}

TEST(QasmRobustness, LargeGeneratedProgramsRoundTrip)
{
    // A 4000-gate program through write -> parse -> write must be
    // byte-identical on the second pass (writer output is canonical).
    Circuit big(32, "big");
    for (int rep = 0; rep < 500; ++rep) {
        big.h(rep % 32);
        big.cx(rep % 32, (rep + 7) % 32);
        big.rz((rep * 13) % 32, 0.001 * rep);
    }
    const std::string once = write(big);
    const std::string twice = write(parse(once, big.name()));
    EXPECT_EQ(once, twice);
}

} // namespace
} // namespace qccd::qasm
