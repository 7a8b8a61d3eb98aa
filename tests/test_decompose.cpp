/** @file Unit tests for lowering to the native {1q, MS} basis. */

#include <gtest/gtest.h>

#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "circuit/stats.hpp"

namespace qccd
{
namespace
{

/** Count gates of one op kind. */
int
countOp(const Circuit &c, Op op)
{
    int count = 0;
    for (const Gate &g : c.gates())
        if (g.op == op)
            ++count;
    return count;
}

TEST(Decompose, OutputIsNative)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cz(1, 2);
    c.cphase(0, 2, 0.5);
    c.swap(0, 1);
    c.measure(2);

    const Circuit native = decomposeToNative(c);
    for (const Gate &g : native.gates())
        EXPECT_TRUE(isNative(g.op)) << g.toString();
}

TEST(Decompose, MsCostsMatchTable)
{
    EXPECT_EQ(msCostOf(Op::MS), 1);
    EXPECT_EQ(msCostOf(Op::CX), 1);
    EXPECT_EQ(msCostOf(Op::CZ), 1);
    EXPECT_EQ(msCostOf(Op::CPhase), 2);
    EXPECT_EQ(msCostOf(Op::Swap), 3);
    EXPECT_EQ(msCostOf(Op::H), 0);
}

TEST(Decompose, CxBecomesOneMs)
{
    Circuit c(2);
    c.cx(0, 1);
    const Circuit native = decomposeToNative(c);
    EXPECT_EQ(countOp(native, Op::MS), 1);
    EXPECT_EQ(computeStats(native).twoQubitGates, 1);
}

TEST(Decompose, CPhaseBecomesTwoMs)
{
    Circuit c(2);
    c.cphase(0, 1, 0.7);
    const Circuit native = decomposeToNative(c);
    EXPECT_EQ(countOp(native, Op::MS), 2);
}

TEST(Decompose, SwapBecomesThreeMs)
{
    Circuit c(2);
    c.swap(0, 1);
    const Circuit native = decomposeToNative(c);
    EXPECT_EQ(countOp(native, Op::MS), 3);
}

TEST(Decompose, BarriersDropped)
{
    Circuit c(2);
    Gate b;
    b.op = Op::Barrier;
    c.add(b);
    c.h(0);
    const Circuit native = decomposeToNative(c);
    EXPECT_EQ(countOp(native, Op::Barrier), 0);
    EXPECT_EQ(native.size(), 1u);
}

TEST(Decompose, NativeGatesPassThrough)
{
    Circuit c(2);
    c.rx(0, 0.1);
    c.ms(0, 1, 0.25);
    c.measure(1);
    const Circuit native = decomposeToNative(c);
    ASSERT_EQ(native.size(), 3u);
    EXPECT_EQ(native.gate(0).op, Op::RX);
    EXPECT_EQ(native.gate(1).op, Op::MS);
    EXPECT_DOUBLE_EQ(native.gate(1).param, 0.25);
    EXPECT_EQ(native.gate(2).op, Op::Measure);
}

TEST(Decompose, PreservesQubitCountAndName)
{
    Circuit c(5, "named");
    c.cx(4, 0);
    const Circuit native = decomposeToNative(c);
    EXPECT_EQ(native.numQubits(), 5);
    EXPECT_EQ(native.name(), "named");
}

TEST(Decompose, QftNativeCountIsNTimesNMinusOne)
{
    // Table II: QFT-64 has 64*63 = 4032 two-qubit gates, which is the
    // CPhase -> 2 MS lowering of the 2016-pair network. Checked here at
    // n = 16 for speed: 16*15 = 240 native MS gates.
    Circuit qft(16);
    for (QubitId i = 0; i < 16; ++i) {
        qft.h(i);
        for (QubitId j = i + 1; j < 16; ++j)
            qft.cphase(j, i, 0.5);
    }
    const Circuit native = decomposeToNative(qft);
    EXPECT_EQ(countOp(native, Op::MS), 16 * 15);
}

// decomposeToNative reserves the sum of nativeCountOf over its input,
// so a count that disagrees with the emitters shows as spare capacity
// (too high) or as regrowth past the reservation (too low).
TEST(Decompose, EveryOpLowersIntoExactlyTheReservedStorage)
{
    for (int k = 0; k <= static_cast<int>(Op::Barrier); ++k) {
        const Op op = static_cast<Op>(k);
        Circuit c(2);
        if (op == Op::Barrier)
            c.add(Gate{});
        else if (op == Op::Measure)
            c.measure(0);
        else if (isTwoQubit(op))
            c.add(Gate::two(op, 0, 1, 0.5));
        else
            c.add(Gate::one(op, 1, 0.5));
        const Circuit native = decomposeToNative(c);
        EXPECT_EQ(native.size(),
                  static_cast<size_t>(nativeCountOf(op)))
            << opName(op);
        EXPECT_EQ(native.gates().capacity(), native.size()) << opName(op);
    }
}

TEST(Decompose, EveryBuiltinAppLowersIntoExactlyTheReservedStorage)
{
    for (const BenchmarkSpec &spec : benchmarkList()) {
        const Circuit native =
            decomposeToNative(makeBenchmark(spec.name));
        EXPECT_EQ(native.gates().capacity(), native.size()) << spec.name;
    }
}

} // namespace
} // namespace qccd
