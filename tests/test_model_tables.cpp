/** @file Exactness tests for the memoized physical-model tables. */

#include <gtest/gtest.h>

#include <cmath>

#include "models/model_tables.hpp"
#include "sim/metrics.hpp"

namespace qccd
{
namespace
{

constexpr GateImpl kAllImpls[] = {GateImpl::AM1, GateImpl::AM2,
                                  GateImpl::PM, GateImpl::FM};

/** Exhaustive memo-vs-direct agreement over the full discrete domain.
 *  EXPECT_EQ on doubles is exact (bitwise for non-NaN) equality: the
 *  tables must return the very doubles the models produce. */
TEST(ModelTables, TwoQubitMatchesModelExactlyForAllImpls)
{
    constexpr int kMaxChain = 40; // beyond the paper's largest capacity
    for (const GateImpl impl : kAllImpls) {
        HardwareParams hw;
        hw.gateImpl = impl;
        const ModelTables tables(hw, kMaxChain);
        const GateTimeModel model = hw.gateTimeModel();
        for (int n = 2; n <= kMaxChain; ++n)
            for (int d = 1; d < n; ++d)
                EXPECT_EQ(tables.twoQubit(d, n), model.twoQubit(d, n))
                    << gateImplName(impl) << " d=" << d << " n=" << n;
    }
}

TEST(ModelTables, ScaleFactorMatchesModelExactly)
{
    constexpr int kMaxChain = 40;
    HardwareParams hw;
    const ModelTables tables(hw, kMaxChain);
    const FidelityModel model = hw.fidelityModel();
    for (int n = 2; n <= kMaxChain; ++n)
        EXPECT_EQ(tables.scaleFactorA(n), model.scaleFactorA(n))
            << "n=" << n;
}

TEST(ModelTables, BeyondTableDomainFallsBackToModels)
{
    HardwareParams hw;
    const ModelTables tables(hw, 8);
    const GateTimeModel gate = hw.gateTimeModel();
    const FidelityModel fid = hw.fidelityModel();
    EXPECT_EQ(tables.twoQubit(5, 20), gate.twoQubit(5, 20));
    EXPECT_EQ(tables.scaleFactorA(20), fid.scaleFactorA(20));
}

TEST(ModelTables, MsErrorMatchesTwoQubitErrorExactly)
{
    HardwareParams hw;
    const ModelTables tables(hw, 30);
    const FidelityModel model = hw.fidelityModel();
    for (int n = 2; n <= 30; ++n) {
        for (const Quanta nbar : {0.0, 0.37, 12.5, 480.0}) {
            const TimeUs tau = 100.0 + 13.0 * n;
            const GateErrorBreakdown a = tables.msError(tau, n, nbar);
            const GateErrorBreakdown b =
                model.twoQubitError(tau, n, nbar);
            EXPECT_EQ(a.background, b.background);
            EXPECT_EQ(a.motional, b.motional);
            EXPECT_EQ(a.fidelity(), b.fidelity());
        }
    }
}

TEST(ModelTables, LogFidelitiesMatchNoteOpClamp)
{
    HardwareParams hw;
    hw.oneQubitError = 4.2e-4;
    hw.measureError = 2.5e-3;
    const ModelTables tables(hw, 10);
    const FidelityModel model = hw.fidelityModel();
    EXPECT_EQ(tables.logOneQubitFidelity(),
              std::log(std::max(model.oneQubitFidelity(), kMinFidelity)));
    EXPECT_EQ(tables.logMeasureFidelity(),
              std::log(std::max(model.measureFidelity(), kMinFidelity)));
    EXPECT_EQ(tables.logUnitFidelity(),
              std::log(std::max(1.0, kMinFidelity)));
    EXPECT_EQ(tables.logUnitFidelity(), 0.0);
}

TEST(ModelTables, SharedCacheReturnsOneInstancePerParameterization)
{
    HardwareParams hw;
    const auto a = ModelTables::shared(hw, 22);
    const auto b = ModelTables::shared(hw, 22);
    EXPECT_EQ(a.get(), b.get());

    const auto c = ModelTables::shared(hw, 23);
    EXPECT_NE(a.get(), c.get());

    HardwareParams other = hw;
    other.kappa = 7e-6;
    const auto d = ModelTables::shared(other, 22);
    EXPECT_NE(a.get(), d.get());

    // Parameters that do not feed the tables still key the cache's
    // embedded models (heating), but shuttle/reorder knobs do not.
    HardwareParams reorder_only = hw;
    reorder_only.reorder = ReorderMethod::IS;
    reorder_only.bufferSlots = 0;
    const auto e = ModelTables::shared(reorder_only, 22);
    EXPECT_EQ(a.get(), e.get());
}

TEST(ModelTables, SharedCacheIsBoundedAndKeepsHandedOutTablesValid)
{
    // Distinct kappas stand in for a long sensitivity axis; each one is
    // a parameterization of its own.
    constexpr int kMaxChain = 6;
    const auto params = [](size_t i) {
        HardwareParams hw;
        hw.kappa = 1e-6 * static_cast<double>(i + 1);
        return hw;
    };
    const auto first = ModelTables::shared(params(0), kMaxChain);
    for (size_t i = 1; i <= ModelTables::kSharedCapacity; ++i)
        ModelTables::shared(params(i), kMaxChain);

    // More new entries than the cap holds have passed, so the first
    // parameterization comes back as a new instance with equal
    // entries, and the pointer held across its eviction still reads
    // its own.
    const auto again = ModelTables::shared(params(0), kMaxChain);
    EXPECT_NE(again.get(), first.get());
    EXPECT_EQ(first->fidelity().kappa(), params(0).kappa);
    for (int n = 2; n <= kMaxChain; ++n) {
        EXPECT_EQ(again->scaleFactorA(n), first->scaleFactorA(n));
        for (int d = 1; d < n; ++d)
            EXPECT_EQ(again->twoQubit(d, n), first->twoQubit(d, n));
    }
    EXPECT_EQ(again->logOneQubitFidelity(), first->logOneQubitFidelity());
    EXPECT_EQ(again->logMeasureFidelity(), first->logMeasureFidelity());
}

} // namespace
} // namespace qccd
