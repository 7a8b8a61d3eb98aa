/** @file Unit tests for HardwareParams aggregation and validation. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "models/params.hpp"

namespace qccd
{
namespace
{

TEST(Params, DefaultsValidate)
{
    HardwareParams hw;
    EXPECT_NO_THROW(hw.validate());
    EXPECT_EQ(hw.gateImpl, GateImpl::FM);
    EXPECT_EQ(hw.reorder, ReorderMethod::GS);
    EXPECT_EQ(hw.bufferSlots, 2);
}

TEST(Params, ModelsInheritConstants)
{
    HardwareParams hw;
    hw.gateImpl = GateImpl::AM2;
    hw.oneQubitUs = 7.0;
    hw.heatingK1 = 0.2;
    hw.gammaPerS = 3.0;

    EXPECT_EQ(hw.gateTimeModel().impl(), GateImpl::AM2);
    EXPECT_DOUBLE_EQ(hw.gateTimeModel().oneQubit(), 7.0);
    EXPECT_DOUBLE_EQ(hw.heatingModel().k1(), 0.2);
    EXPECT_DOUBLE_EQ(hw.fidelityModel().gammaPerSecond(), 3.0);
}

TEST(Params, InvalidValuesRejected)
{
    HardwareParams hw;
    hw.bufferSlots = -1;
    EXPECT_THROW(hw.validate(), ConfigError);

    hw = HardwareParams{};
    hw.recoolFactor = 0.0;
    EXPECT_THROW(hw.validate(), ConfigError);

    hw = HardwareParams{};
    hw.recoolFactor = 1.5;
    EXPECT_THROW(hw.validate(), ConfigError);

    hw = HardwareParams{};
    hw.shuttle.merge = -5;
    EXPECT_THROW(hw.validate(), ConfigError);

    hw = HardwareParams{};
    hw.kappa = -1;
    EXPECT_THROW(hw.validate(), ConfigError);
}

/** A knob range: values just outside it, NaN among them, and its
 *  boundary values inside it. */
struct RangeCase
{
    KnobRange range;
    const char *bound; ///< the message's closing words
    std::vector<double> outside;
    std::vector<double> inside;
};

TEST(Params, EveryKnobRangeIsCheckedByValidate)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const RangeCase cases[] = {
        {KnobRange::Positive, "positive", {0.0, -1.0, nan}, {1e-9, 1.0}},
        {KnobRange::NonNegative, "non-negative", {-1e-9, -1.0, nan},
         {0.0, 1.0}},
        {KnobRange::Probability, "in [0, 1)", {-1e-9, 1.0, nan},
         {0.0, 0.9999999}},
        {KnobRange::Fraction, "in (0, 1]", {0.0, 1.0000001, nan},
         {1e-9, 1.0}},
    };
    size_t named = 0;
    for (const HardwareKnob &row : kHardwareKnobs) {
        if (row.name == nullptr) {
            EXPECT_EQ(row.range, KnobRange::Any);
            continue;
        }
        ++named;
        const RangeCase *c = nullptr;
        for (const RangeCase &candidate : cases)
            if (candidate.range == row.range)
                c = &candidate;
        ASSERT_NE(c, nullptr) << row.name << " has no checked range";
        const std::string message =
            "parameter '" + std::string(row.name) + "' must be " + c->bound;
        // An integer field holds only integral values, so validate()
        // sees only those; checkRange sees every value.
        const auto holds = [&](double v) {
            return row.type == KnobType::Real || std::trunc(v) == v;
        };
        for (const double v : c->outside) {
            try {
                row.checkRange(v);
                ADD_FAILURE() << row.name << " accepted " << v;
            } catch (const ConfigError &err) {
                EXPECT_EQ(err.what(), message);
            }
            if (!holds(v))
                continue;
            HardwareParams hw;
            row.set(hw, v);
            EXPECT_THROW(hw.validate(), ConfigError) << row.name << " " << v;
        }
        for (const double v : c->inside) {
            EXPECT_NO_THROW(row.checkRange(v)) << row.name << " " << v;
            if (!holds(v))
                continue;
            HardwareParams hw;
            row.set(hw, v);
            EXPECT_NO_THROW(hw.validate()) << row.name << " " << v;
        }
    }
    EXPECT_EQ(named, 17u);

    // validate() names the first bad knob in table order.
    HardwareParams hw;
    hw.recoolFactor = 2;
    hw.heatingK2 = -0.01;
    try {
        hw.validate();
        ADD_FAILURE() << "validate() accepted a negative k2";
    } catch (const ConfigError &err) {
        EXPECT_STREQ(err.what(),
                     "parameter 'heating_k2' must be non-negative");
    }
}

TEST(Params, ReorderNamesRoundTrip)
{
    EXPECT_EQ(reorderMethodFromName("GS"), ReorderMethod::GS);
    EXPECT_EQ(reorderMethodFromName("IS"), ReorderMethod::IS);
    EXPECT_EQ(reorderMethodName(ReorderMethod::GS), "GS");
    EXPECT_EQ(reorderMethodName(ReorderMethod::IS), "IS");
    EXPECT_THROW(reorderMethodFromName("XX"), ConfigError);
}

} // namespace
} // namespace qccd
