/** @file Unit tests for the Table I shuttle timing model. */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "models/shuttle_time.hpp"

namespace qccd
{
namespace
{

TEST(ShuttleTime, DefaultsMatchTableOne)
{
    ShuttleTimeModel model;
    EXPECT_DOUBLE_EQ(model.movePerSegment, 5.0);
    EXPECT_DOUBLE_EQ(model.split, 80.0);
    EXPECT_DOUBLE_EQ(model.merge, 80.0);
    EXPECT_DOUBLE_EQ(model.yJunction, 100.0);
    EXPECT_DOUBLE_EQ(model.xJunction, 120.0);
}

TEST(ShuttleTime, JunctionCrossingByDegree)
{
    ShuttleTimeModel model;
    EXPECT_DOUBLE_EQ(model.junctionCrossing(3), 100.0);
    EXPECT_DOUBLE_EQ(model.junctionCrossing(4), 120.0);
    // Degrees above four still use the X-junction time.
    EXPECT_DOUBLE_EQ(model.junctionCrossing(5), 120.0);
    // Straight-through corners (e.g. an H-tree root) cross like a Y.
    EXPECT_DOUBLE_EQ(model.junctionCrossing(2), 100.0);
}

TEST(ShuttleTime, DegreeBelowTwoPanics)
{
    ShuttleTimeModel model;
    EXPECT_THROW(model.junctionCrossing(1), InternalError);
}

} // namespace
} // namespace qccd
