/** @file Tests for the automated design recommender. */

#include <gtest/gtest.h>

#include <memory>

#include "benchgen/benchgen.hpp"
#include "common/error.hpp"
#include "compiler/mapping.hpp"
#include "core/recommend.hpp"
#include "core/sweep_engine.hpp"

namespace qccd
{
namespace
{

/** Small candidate space so tests stay fast. */
CandidateSpace
smallSpace()
{
    CandidateSpace space;
    space.topologies = {"linear:3", "grid:2x2"};
    space.capacities = {8, 12};
    space.gates = {GateImpl::AM2, GateImpl::FM};
    space.reorders = {ReorderMethod::GS};
    return space;
}

/** A base point around a @p qubits-wide circuit; the plan reads only
 *  its width. */
PlannedPoint
baseFor(int qubits)
{
    PlannedPoint base;
    base.application = "wide";
    base.native = std::make_shared<const Circuit>(qubits, "wide");
    return base;
}

TEST(Recommend, PlanKeepsTheLoopOrderAndLeavesOutWhatDoesNotFit)
{
    // Six traps of 14 hold 84 ions on either topology: 90 qubits fit
    // every larger capacity but not 14, and 84 qubits fit them all.
    SweepEngine engine(1);
    const CandidateSpace space;
    const SweepPlan plan = space.plan(baseFor(90), engine);
    size_t index = 0;
    for (const std::string &topo : space.topologies)
        for (const int cap : space.capacities)
            for (const GateImpl gate : space.gates)
                for (const ReorderMethod reorder : space.reorders) {
                    if (cap == 14)
                        continue;
                    ASSERT_LT(index, plan.size());
                    const PlannedPoint point = plan.point(index++);
                    EXPECT_EQ(point.design.topologySpec, topo);
                    EXPECT_EQ(point.design.trapCapacity, cap);
                    EXPECT_EQ(point.design.hw.gateImpl, gate);
                    EXPECT_EQ(point.design.hw.reorder, reorder);
                }
    EXPECT_EQ(plan.size(), index);
    EXPECT_EQ(plan.size(), 2u * 5u * 4u * 2u);
    EXPECT_EQ(space.plan(baseFor(84), engine).size(), space.size());
}

TEST(Recommend, BaseKnobsAndOptionsReachEveryCandidate)
{
    SweepEngine engine(1);
    PlannedPoint base = baseFor(16);
    base.design.hw.bufferSlots = 0;
    base.options.mappingPolicy = MappingPolicy::Balanced;
    base.options.pointTimeoutMs = 250;
    const SweepPlan plan = CandidateSpace{}.plan(base, engine);
    ASSERT_EQ(plan.size(), CandidateSpace{}.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        const PlannedPoint point = plan.point(i);
        EXPECT_EQ(point.application, "wide");
        EXPECT_EQ(point.native, base.native);
        EXPECT_EQ(point.design.hw.bufferSlots, 0) << i;
        EXPECT_EQ(point.options.mappingPolicy, MappingPolicy::Balanced)
            << i;
        EXPECT_EQ(point.options.pointTimeoutMs, 250) << i;
    }
}

TEST(Recommend, SpaceSizeIsProduct)
{
    EXPECT_EQ(smallSpace().size(), 2u * 2u * 2u * 1u);
    EXPECT_EQ(CandidateSpace{}.size(), 2u * 6u * 4u * 2u);
}

TEST(Recommend, RankingIsSortedBestFirst)
{
    const Circuit c = makeBenchmarkSized("squareroot", 16);
    const auto ranking = rankDesigns(c, smallSpace());
    ASSERT_EQ(ranking.size(), smallSpace().size());
    for (size_t i = 1; i < ranking.size(); ++i)
        EXPECT_GE(ranking[i - 1].score(), ranking[i].score());
}

TEST(Recommend, BestEqualsFrontOfRanking)
{
    const Circuit c = makeBenchmarkSized("qaoa", 16);
    const auto ranking = rankDesigns(c, smallSpace());
    const RankedDesign best = recommendDesign(c, smallSpace());
    EXPECT_EQ(best.design.label(), ranking.front().design.label());
    EXPECT_DOUBLE_EQ(best.score(), ranking.front().score());
}

TEST(Recommend, SkipsTooSmallCandidates)
{
    // 30 qubits do not fit linear:3 at capacity 8 (24 slots); those
    // candidates must be skipped, not fail the whole search.
    const Circuit c = makeBenchmarkSized("qft", 30);
    const auto ranking = rankDesigns(c, smallSpace());
    EXPECT_LT(ranking.size(), smallSpace().size());
    for (const RankedDesign &r : ranking) {
        EXPECT_GE(r.design.buildTopology().totalCapacity(), 30);
    }
}

TEST(Recommend, ThrowsWhenNothingFits)
{
    CandidateSpace space = smallSpace();
    space.capacities = {4};
    const Circuit c = makeBenchmarkSized("qft", 30);
    EXPECT_THROW(rankDesigns(c, space), ConfigError);
}

TEST(Recommend, GridRecommendedForIrregularWorkload)
{
    // The paper's Section IX-B conclusion, automated: SquareRoot's
    // irregular pattern should select a grid topology.
    const Circuit c = makeBenchmarkSized("squareroot", 20);
    CandidateSpace space;
    space.topologies = {"linear:4", "grid:2x2"};
    space.capacities = {8};
    space.gates = {GateImpl::FM};
    space.reorders = {ReorderMethod::GS};
    const RankedDesign best = recommendDesign(c, space);
    EXPECT_EQ(best.design.topologySpec, "grid:2x2");
}

TEST(Recommend, GsRecommendedOverIs)
{
    const Circuit c = makeBenchmarkSized("qft", 16);
    CandidateSpace space;
    space.topologies = {"linear:3"};
    space.capacities = {8};
    space.gates = {GateImpl::FM};
    space.reorders = {ReorderMethod::GS, ReorderMethod::IS};
    const RankedDesign best = recommendDesign(c, space);
    EXPECT_EQ(best.design.hw.reorder, ReorderMethod::GS);
}

TEST(Recommend, TableShowsTopRows)
{
    const Circuit c = makeBenchmarkSized("bv", 12);
    const auto ranking = rankDesigns(c, smallSpace());
    const std::string table = rankingTable(ranking, 3);
    EXPECT_NE(table.find("rank"), std::string::npos);
    EXPECT_NE(table.find("1"), std::string::npos);
    // Only 3 data rows requested: "4" must not appear as a rank.
    EXPECT_EQ(table.find("\n4  "), std::string::npos);
}

} // namespace
} // namespace qccd
