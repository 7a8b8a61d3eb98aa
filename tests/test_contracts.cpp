/**
 * @file
 * Tests for the checked-build contract layer (common/error.hpp):
 * QCCD_DBG_ASSERT must be provably zero-cost in release builds (the
 * condition is not even evaluated) and must throw InternalError — the
 * same typed failure panicUnless raises — when QCCD_CHECKED=ON. The
 * suite compiles in both modes; each test asserts the behavior of the
 * mode it was built under, so the release CI lane proves compiled-out
 * and the checked CI lane proves the audits fire.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/design_point.hpp"
#include "core/toolflow.hpp"
#include "sim/model_replay.hpp"

namespace qccd
{
namespace
{

TEST(Contracts, BuildFlagAndHelperAgree)
{
    EXPECT_EQ(checkedBuildEnabled(), QCCD_CHECKED_BUILD != 0);
}

TEST(Contracts, PassingAssertIsAlwaysSilent)
{
    EXPECT_NO_THROW(QCCD_DBG_ASSERT(true, "never fires"));
}

TEST(Contracts, FailingAssertThrowsOnlyWhenChecked)
{
#if QCCD_CHECKED_BUILD
    EXPECT_THROW(QCCD_DBG_ASSERT(false, "contract violated"),
                 InternalError);
    try {
        QCCD_DBG_ASSERT(false, "contract violated");
    } catch (const InternalError &err) {
        // Same formatting path as panicUnless: the message names the
        // violated invariant and the error brands itself internal.
        EXPECT_NE(std::string(err.what()).find("contract violated"),
                  std::string::npos);
    }
#else
    EXPECT_NO_THROW(QCCD_DBG_ASSERT(false, "compiled out"));
#endif
}

TEST(Contracts, ReleaseBuildsDoNotEvaluateTheCondition)
{
    // The condition must be compiled out entirely, not just ignored:
    // a release-build audit with a side effect would desynchronize
    // release and checked behavior (and cost time on the hot path).
    int evaluations = 0;
    [[maybe_unused]] auto probe = [&]() {
        ++evaluations;
        return true;
    };
    QCCD_DBG_ASSERT(probe(), "probe");
#if QCCD_CHECKED_BUILD
    EXPECT_EQ(evaluations, 1);
#else
    EXPECT_EQ(evaluations, 0);
#endif
}

TEST(Contracts, CheckedOnlyBlocksFollowTheSameGate)
{
    int ran = 0;
    QCCD_CHECKED_ONLY(ran = 1;)
#if QCCD_CHECKED_BUILD
    EXPECT_EQ(ran, 1);
#else
    EXPECT_EQ(ran, 0);
#endif
}

TEST(Contracts, ModelFoldFliesOneIonAtATime)
{
    // The fold keeps one in-flight energy: a move needs an ion in
    // flight, and a second split would overwrite the first ion's.
    const HardwareParams hw;
    SimResult out;
    ModelFold idle(hw, 4, out);
    ModelFold flying(hw, 4, out);
    flying.split(0, 2);
#if QCCD_CHECKED_BUILD
    EXPECT_THROW(idle.moves(1), InternalError);
    EXPECT_THROW(flying.split(1, 2), InternalError);
#else
    EXPECT_NO_THROW(idle.moves(1));
    EXPECT_NO_THROW(flying.split(1, 2));
#endif
}

TEST(Contracts, StageBoundaryAuditsPassOnHealthyRuns)
{
    // End-to-end: a real toolflow context construction runs the
    // checked Topology::validate audit (and a full point would run the
    // scheduler/device-state audits — covered by the suites under the
    // checked CI lane). Healthy inputs must never trip a contract.
    DesignPoint design;
    design.topologySpec = "linear:4";
    design.trapCapacity = 14;
    EXPECT_NO_THROW(ToolflowContext{design});
}

} // namespace
} // namespace qccd
