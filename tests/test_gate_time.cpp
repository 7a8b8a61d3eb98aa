/** @file Unit + property tests for the MS gate duration models. */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "models/params.hpp"

namespace qccd
{
namespace
{

/** The model of @p impl at HardwareParams' default times. */
GateTimeModel
modelOf(GateImpl impl)
{
    HardwareParams hw;
    hw.gateImpl = impl;
    return hw.gateTimeModel();
}

TEST(GateTime, Am1MatchesPaperFit)
{
    const GateTimeModel model = modelOf(GateImpl::AM1);
    // tau(d) = 100*d - 22
    EXPECT_DOUBLE_EQ(model.twoQubit(1, 10), 78.0);
    EXPECT_DOUBLE_EQ(model.twoQubit(3, 10), 278.0);
    EXPECT_DOUBLE_EQ(model.twoQubit(9, 10), 878.0);
}

TEST(GateTime, Am2MatchesPaperFit)
{
    const GateTimeModel model = modelOf(GateImpl::AM2);
    // tau(d) = 38*d + 10
    EXPECT_DOUBLE_EQ(model.twoQubit(1, 10), 48.0);
    EXPECT_DOUBLE_EQ(model.twoQubit(5, 10), 200.0);
}

TEST(GateTime, PmMatchesPaperFit)
{
    const GateTimeModel model = modelOf(GateImpl::PM);
    // tau(d) = 5*d + 160
    EXPECT_DOUBLE_EQ(model.twoQubit(1, 10), 165.0);
    EXPECT_DOUBLE_EQ(model.twoQubit(8, 10), 200.0);
}

TEST(GateTime, FmMatchesPaperFit)
{
    const GateTimeModel model = modelOf(GateImpl::FM);
    // tau(N) = max(13.33*N - 54, 100): constant 100 below ~12 ions.
    EXPECT_DOUBLE_EQ(model.twoQubit(1, 5), 100.0);
    EXPECT_DOUBLE_EQ(model.twoQubit(3, 11), 100.0);
    EXPECT_NEAR(model.twoQubit(1, 20), 13.33 * 20 - 54, 1e-9);
    EXPECT_NEAR(model.twoQubit(7, 30), 13.33 * 30 - 54, 1e-9);
}

TEST(GateTime, FmIgnoresSeparation)
{
    const GateTimeModel model = modelOf(GateImpl::FM);
    for (int d = 1; d < 20; ++d)
        EXPECT_DOUBLE_EQ(model.twoQubit(d, 20), model.twoQubit(1, 20));
}

TEST(GateTime, AmPmIgnoreChainLength)
{
    for (GateImpl impl : {GateImpl::AM1, GateImpl::AM2, GateImpl::PM}) {
        const GateTimeModel model = modelOf(impl);
        for (int n = 4; n <= 30; n += 2)
            EXPECT_DOUBLE_EQ(model.twoQubit(3, n), model.twoQubit(3, 4))
                << gateImplName(impl);
    }
}

TEST(GateTime, InvalidGeometryPanics)
{
    const GateTimeModel model = modelOf(GateImpl::FM);
    EXPECT_THROW(model.twoQubit(0, 5), InternalError);
    EXPECT_THROW(model.twoQubit(1, 1), InternalError);
    EXPECT_THROW(model.twoQubit(5, 5), InternalError);
}

TEST(GateTime, NamesRoundTrip)
{
    for (GateImpl impl : {GateImpl::AM1, GateImpl::AM2, GateImpl::PM,
                          GateImpl::FM})
        EXPECT_EQ(gateImplFromName(gateImplName(impl)), impl);
    EXPECT_THROW(gateImplFromName("??"), ConfigError);
}

/** Property sweep: durations are positive and monotone in distance. */
class GateTimeProperty : public ::testing::TestWithParam<GateImpl>
{
};

TEST_P(GateTimeProperty, PositiveAndMonotone)
{
    const GateTimeModel model = modelOf(GetParam());
    for (int n = 4; n <= 34; n += 3) {
        double prev = 0;
        for (int d = 1; d < n; ++d) {
            const double tau = model.twoQubit(d, n);
            EXPECT_GT(tau, 0) << gateImplName(GetParam());
            EXPECT_GE(tau, prev) << gateImplName(GetParam());
            prev = tau;
        }
    }
}

TEST_P(GateTimeProperty, MonotoneInChainLengthForFm)
{
    const GateTimeModel model = modelOf(GetParam());
    double prev = 0;
    for (int n = 4; n <= 34; ++n) {
        const double tau = model.twoQubit(1, n);
        if (GetParam() == GateImpl::FM) {
            EXPECT_GE(tau, prev);
        }
        prev = tau;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllImpls, GateTimeProperty,
    ::testing::Values(GateImpl::AM1, GateImpl::AM2, GateImpl::PM,
                      GateImpl::FM),
    [](const ::testing::TestParamInfo<GateImpl> &info) {
        return gateImplName(info.param);
    });

} // namespace
} // namespace qccd
