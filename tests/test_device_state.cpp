/** @file Unit tests for the mutable device state. */

#include <gtest/gtest.h>

#include "arch/builders.hpp"
#include "common/error.hpp"
#include "compiler/reorder.hpp"
#include "sim/device_state.hpp"

namespace qccd
{
namespace
{

class DeviceStateTest : public ::testing::Test
{
  protected:
    DeviceStateTest() : topo_(makeLinear(3, 5)), state_(topo_, 6)
    {
        // Traps: [0,1,2] in trap 0, [3,4] in trap 1, [5] in trap 2.
        state_.placeIon(0, 0, 0);
        state_.placeIon(0, 1, 1);
        state_.placeIon(0, 2, 2);
        state_.placeIon(1, 3, 3);
        state_.placeIon(1, 4, 4);
        state_.placeIon(2, 5, 5);
    }

    Topology topo_;
    DeviceState state_;
};

TEST_F(DeviceStateTest, InitialPlacement)
{
    EXPECT_EQ(state_.chain(0).size(), 3);
    EXPECT_EQ(state_.chain(1).size(), 2);
    EXPECT_EQ(state_.trapOf(4), 1);
    EXPECT_EQ(state_.positionOf(1), 1);
    EXPECT_EQ(state_.payloadOf(2), 2);
    EXPECT_EQ(state_.ionOf(5), 5);
    EXPECT_EQ(state_.freeSlots(0), 2);
    EXPECT_EQ(state_.freeSlots(2), 4);
}

TEST_F(DeviceStateTest, SwapPayloads)
{
    state_.swapPayloads(0, 2);
    EXPECT_EQ(state_.payloadOf(0), 2);
    EXPECT_EQ(state_.payloadOf(2), 0);
    EXPECT_EQ(state_.ionOf(0), 2);
    EXPECT_EQ(state_.ionOf(2), 0);
    // Physical positions unchanged.
    EXPECT_EQ(state_.positionOf(0), 0);
}

TEST_F(DeviceStateTest, SwapTowardMovesPhysically)
{
    const IonId neighbour = state_.swapToward(0, ChainEnd::Right);
    EXPECT_EQ(neighbour, 1);
    EXPECT_EQ(state_.positionOf(0), 1);
    EXPECT_EQ(state_.positionOf(1), 0);
    EXPECT_THROW(state_.swapToward(1, ChainEnd::Left), InternalError);
}

TEST_F(DeviceStateTest, DetachAttachRoundTrip)
{
    const IonId ion = state_.detachEnd(0, ChainEnd::Right);
    EXPECT_EQ(ion, 2);
    EXPECT_EQ(state_.trapOf(ion), kInvalidId);
    EXPECT_EQ(state_.chain(0).size(), 2);

    state_.attachEnd(1, ChainEnd::Left, ion);
    EXPECT_EQ(state_.trapOf(ion), 1);
    EXPECT_EQ(state_.positionOf(ion), 0);
    EXPECT_EQ(state_.chain(1).ions.front(), ion);
}

TEST_F(DeviceStateTest, DetachLeftTakesFront)
{
    const IonId ion = state_.detachEnd(0, ChainEnd::Left);
    EXPECT_EQ(ion, 0);
    EXPECT_EQ(state_.chain(0).ions.front(), 1);
}

TEST_F(DeviceStateTest, PortEndsFollowNodeIdConvention)
{
    // Linear: edge 0 connects traps 0-1; edge 1 connects traps 1-2.
    EXPECT_EQ(state_.portEnd(0, 0), ChainEnd::Right);
    EXPECT_EQ(state_.portEnd(1, 0), ChainEnd::Left);
    EXPECT_EQ(state_.portEnd(1, 1), ChainEnd::Right);
    EXPECT_EQ(state_.portEnd(2, 1), ChainEnd::Left);
}

TEST_F(DeviceStateTest, GridPortsAreAllRight)
{
    const Topology grid = makeGrid(2, 3, 5);
    DeviceState state(grid, 2);
    state.placeIon(0, 0, 0);
    state.placeIon(5, 1, 1);
    // Junction node ids exceed all trap ids, so every port is right.
    for (TrapId t = 0; t < grid.trapCount(); ++t)
        for (EdgeId e : grid.incidentEdges(grid.trapNode(t)))
            EXPECT_EQ(state.portEnd(t, e), ChainEnd::Right);
}

TEST_F(DeviceStateTest, EnergyTracksMaximum)
{
    // Energies live in the emitter's fold, not in the device state.
    // Trap 2's lone ion flies to trap 1, which recools on the merge,
    // so the run's maximum stays the ion's peak in flight.
    HardwareParams hw;
    hw.recoolFactor = 0.5;
    SimResult result;
    PrimitiveEmitter emitter(state_, hw, result, nullptr);
    IonId ion = kInvalidId;
    emitter.emitSplit(2, ChainEnd::Left, 0, &ion);
    emitter.emitMove(1, ion, 0);
    const Quanta peak = emitter.model().flight();
    emitter.emitMerge(1, ChainEnd::Right, ion, 0);
    EXPECT_DOUBLE_EQ(result.maxChainEnergy, peak);
    EXPECT_DOUBLE_EQ(emitter.model().energy(1), (peak + 0.1) * 0.5);
    EXPECT_LT(emitter.model().energy(1), peak);
    EXPECT_DOUBLE_EQ(emitter.model().energy(2), 0.0);
}

TEST_F(DeviceStateTest, InvalidOperationsPanic)
{
    EXPECT_THROW(state_.positionOf(99), InternalError);
    EXPECT_THROW(state_.junctionTimeline(topo_.trapNode(0)),
                 InternalError);
    // Attaching a trapped ion is a bug.
    EXPECT_THROW(state_.attachEnd(1, ChainEnd::Left, 0), InternalError);
}

TEST_F(DeviceStateTest, TooManyIonsRejected)
{
    const Topology tiny = makeLinear(1, 2);
    EXPECT_THROW(DeviceState(tiny, 3), ConfigError);
}

TEST_F(DeviceStateTest, PositionIndexConsistentThroughMutations)
{
    // Every mutation path of the O(1) per-ion position index: place,
    // physical swap, detach at both ends, attach at both ends.
    EXPECT_TRUE(state_.positionIndexConsistent());

    state_.swapToward(0, ChainEnd::Right);
    EXPECT_TRUE(state_.positionIndexConsistent());
    state_.swapToward(0, ChainEnd::Right);
    EXPECT_TRUE(state_.positionIndexConsistent());

    const IonId right = state_.detachEnd(0, ChainEnd::Right);
    EXPECT_TRUE(state_.positionIndexConsistent());
    const IonId left = state_.detachEnd(0, ChainEnd::Left);
    EXPECT_TRUE(state_.positionIndexConsistent());

    state_.attachEnd(1, ChainEnd::Left, right);
    EXPECT_TRUE(state_.positionIndexConsistent());
    state_.attachEnd(2, ChainEnd::Right, left);
    EXPECT_TRUE(state_.positionIndexConsistent());

    EXPECT_EQ(state_.positionOf(right), 0);
    EXPECT_EQ(state_.chain(1).ions.front(), right);
}

TEST_F(DeviceStateTest, ResetRestoresFreshState)
{
    state_.trapTimeline(1).acquire(0, 50);
    state_.detachEnd(0, ChainEnd::Right);
    state_.swapPayloads(0, 1);

    state_.reset();

    for (TrapId t = 0; t < topo_.trapCount(); ++t) {
        EXPECT_EQ(state_.chain(t).size(), 0);
        EXPECT_DOUBLE_EQ(state_.trapTimeline(t).freeAt(), 0.0);
    }
    EXPECT_TRUE(state_.positionIndexConsistent());

    // The reset state accepts a fresh layout, exactly like a newly
    // constructed one.
    state_.placeIon(0, 0, 0);
    state_.placeIon(0, 1, 1);
    EXPECT_EQ(state_.positionOf(1), 1);
    EXPECT_TRUE(state_.positionIndexConsistent());
}

TEST(ResourceTimelineTest, AcquireSerializes)
{
    ResourceTimeline res;
    EXPECT_DOUBLE_EQ(res.acquire(0, 10), 0);
    EXPECT_DOUBLE_EQ(res.acquire(0, 5), 10);  // waits for free
    EXPECT_DOUBLE_EQ(res.acquire(50, 5), 50); // idle gap allowed
    EXPECT_DOUBLE_EQ(res.freeAt(), 55);
}

} // namespace
} // namespace qccd
