/** @file Unit + property tests for the Equation 1 fidelity model. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "models/params.hpp"

namespace qccd
{
namespace
{

TEST(Fidelity, EquationOneTerms)
{
    // F = 1 - Gamma*tau - kappa*N/ln(N)*(2*nbar + 1)
    FidelityModel model(2.0, 1e-5, 1e-4, 1e-3);
    const GateErrorBreakdown err = model.twoQubitError(200.0, 20, 3.0);
    EXPECT_NEAR(err.background, 2.0 * 200e-6, 1e-12);
    EXPECT_NEAR(err.motional, 1e-5 * 20 / std::log(20.0) * 7.0, 1e-12);
    EXPECT_NEAR(err.fidelity(), 1.0 - err.background - err.motional,
                1e-12);
}

TEST(Fidelity, ScaleFactorGrowsAsNOverLogN)
{
    FidelityModel model(2.0, 1e-5, 3e-5, 1e-3);
    const double a20 = model.scaleFactorA(20);
    const double a35 = model.scaleFactorA(35);
    // The paper reports about a 1.5x motional-error growth from
    // capacity 20 to capacity 35 due to this factor.
    EXPECT_NEAR(a35 / a20, (35 / std::log(35.0)) / (20 / std::log(20.0)),
                1e-12);
    EXPECT_GT(a35 / a20, 1.4);
    EXPECT_LT(a35 / a20, 1.6);
}

TEST(Fidelity, DecreasesWithDuration)
{
    const FidelityModel model = HardwareParams{}.fidelityModel();
    double prev = 1.0;
    for (double tau : {50.0, 100.0, 400.0, 1600.0}) {
        const double f = model.twoQubitFidelity(tau, 10, 1.0);
        EXPECT_LT(f, prev);
        prev = f;
    }
}

TEST(Fidelity, DecreasesWithMotionalEnergy)
{
    const FidelityModel model = HardwareParams{}.fidelityModel();
    double prev = 1.0;
    for (double nbar : {0.0, 1.0, 10.0, 100.0}) {
        const double f = model.twoQubitFidelity(100.0, 10, nbar);
        EXPECT_LT(f, prev);
        prev = f;
    }
}

TEST(Fidelity, TotalErrorClampedToOne)
{
    FidelityModel model(2.0, 1.0, 3e-5, 1e-3); // absurd kappa
    const GateErrorBreakdown err =
        model.twoQubitError(100.0, 30, 1000.0);
    EXPECT_DOUBLE_EQ(err.total(), 1.0);
    EXPECT_DOUBLE_EQ(err.fidelity(), 0.0);
}

TEST(Fidelity, ConstantRates)
{
    FidelityModel model(2.0, 1e-5, 2e-4, 5e-3);
    EXPECT_DOUBLE_EQ(model.oneQubitFidelity(), 1.0 - 2e-4);
    EXPECT_DOUBLE_EQ(model.measureFidelity(), 1.0 - 5e-3);
}

TEST(Fidelity, InvalidQueriesPanic)
{
    const FidelityModel model = HardwareParams{}.fidelityModel();
    EXPECT_THROW(model.twoQubitError(-1.0, 10, 0.0), InternalError);
    EXPECT_THROW(model.twoQubitError(100.0, 10, -1.0), InternalError);
    EXPECT_THROW(model.scaleFactorA(1), InternalError);
}

/** Property sweep over chain lengths: error grows with N (N >= 3). */
class FidelityChainProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(FidelityChainProperty, MotionalErrorGrowsWithChainLength)
{
    const int n = GetParam();
    const FidelityModel model = HardwareParams{}.fidelityModel();
    // N/ln(N) is increasing for N >= 3 (it dips between 2 and e).
    if (n >= 3) {
        EXPECT_GT(model.scaleFactorA(n + 1), model.scaleFactorA(n));
    }
    EXPECT_GT(model.scaleFactorA(n), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Lengths, FidelityChainProperty,
                         ::testing::Range(2, 40));

} // namespace
} // namespace qccd
