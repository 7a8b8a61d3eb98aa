/**
 * @file
 * Tests for the surrogate cost models (core/cost_model.hpp): feature
 * extraction pinned on known graphs, analytic determinism and
 * monotone responses to the physical knobs, calibration
 * reproducibility, and rank agreement with real toolflow points.
 */

#include <gtest/gtest.h>

#include <vector>

#include "benchgen/benchgen.hpp"
#include "circuit/stats.hpp"
#include "core/cost_model.hpp"
#include "core/sweep_engine.hpp"
#include "core/toolflow.hpp"

namespace qccd
{
namespace
{

TopologyFeatures
featuresOf(const std::string &spec, int capacity)
{
    DesignPoint design;
    design.topologySpec = spec;
    design.trapCapacity = capacity;
    const ToolflowContext context(design);
    return extractTopologyFeatures(context.topology());
}

CircuitStats
statsOf(const std::string &app)
{
    return computeStats(*SweepEngine::lower(makeBenchmark(app)));
}

// ---------------------------------------------------------------------
// Feature extraction, pinned on hand-checkable graphs
// ---------------------------------------------------------------------

TEST(TopologyFeatures, LinearSixTraps)
{
    const TopologyFeatures f = featuresOf("linear:6", 22);
    EXPECT_EQ(f.traps, 6);
    EXPECT_EQ(f.junctions, 0);
    EXPECT_EQ(f.edges, 5);
    EXPECT_EQ(f.totalCapacity, 6 * 22);
    EXPECT_EQ(f.minTrapCapacity, 22);
    EXPECT_EQ(f.maxTrapCapacity, 22);
    EXPECT_EQ(f.diameterEdges, 5);
    // 15 unordered pairs; path lengths 1x5, 2x4, 3x3, 4x2, 5x1.
    EXPECT_DOUBLE_EQ(f.meanPathEdges, 35.0 / 15.0);
    // Intermediate traps: one fewer than the path length each.
    EXPECT_DOUBLE_EQ(f.meanPathTraps, 20.0 / 15.0);
    EXPECT_DOUBLE_EQ(f.meanPathJunctions3, 0.0);
    EXPECT_DOUBLE_EQ(f.meanPathJunctions4, 0.0);
}

TEST(TopologyFeatures, RingSixTraps)
{
    const TopologyFeatures f = featuresOf("ring:6", 18);
    EXPECT_EQ(f.traps, 6);
    EXPECT_EQ(f.edges, 6);
    EXPECT_EQ(f.diameterEdges, 3);
    // 15 pairs: distances 1x6, 2x6, 3x3.
    EXPECT_DOUBLE_EQ(f.meanPathEdges, 27.0 / 15.0);
}

TEST(TopologyFeatures, GridHasJunctions)
{
    const TopologyFeatures f = featuresOf("grid:2x3", 22);
    EXPECT_EQ(f.traps, 6);
    EXPECT_GT(f.junctions, 0);
    EXPECT_GT(f.meanPathJunctions3 + f.meanPathJunctions4, 0.0);
}

// ---------------------------------------------------------------------
// Analytic surrogate: determinism and knob monotonicity
// ---------------------------------------------------------------------

TEST(AnalyticModel, DeterministicAcrossCalls)
{
    const AnalyticCostModel model;
    const CircuitStats stats = statsOf("qft");
    const TopologyFeatures topo = featuresOf("linear:6", 22);
    DesignPoint design;
    const CostPrediction a = model.predict(design, stats, topo);
    const CostPrediction b = model.predict(design, stats, topo);
    EXPECT_EQ(a.logFidelity, b.logFidelity);
    EXPECT_EQ(a.timeUs, b.timeUs);
    EXPECT_LT(a.logFidelity, 0.0);
    EXPECT_GT(a.timeUs, 0.0);
}

TEST(AnalyticModel, MonotoneInPhysicalKnobs)
{
    const AnalyticCostModel model;
    const CircuitStats stats = statsOf("supremacy");
    const TopologyFeatures topo = featuresOf("linear:6", 22);
    DesignPoint base;

    // Faster background decoherence -> lower predicted fidelity.
    DesignPoint hotter = base;
    hotter.hw.gammaPerS = 4.0;
    EXPECT_LT(model.predict(hotter, stats, topo).logFidelity,
              model.predict(base, stats, topo).logFidelity);

    // Stronger recooling -> higher predicted fidelity.
    DesignPoint cooled = base;
    cooled.hw.recoolFactor = 0.01;
    EXPECT_GT(model.predict(cooled, stats, topo).logFidelity,
              model.predict(base, stats, topo).logFidelity);

    // More heating per split/merge -> lower predicted fidelity.
    DesignPoint noisy = base;
    noisy.hw.heatingK1 = 0.5;
    EXPECT_LT(model.predict(noisy, stats, topo).logFidelity,
              model.predict(base, stats, topo).logFidelity);
}

TEST(AnalyticModel, SingleTrapAppIgnoresCapacityAndTopology)
{
    // An application that fits one trap predicts identically across
    // capacities and device graphs — like the simulator, so spec
    // index stays the tie-break in both worlds.
    const AnalyticCostModel model;
    CircuitStats bell;
    bell.numQubits = 2;
    bell.oneQubitGates = 1;
    bell.twoQubitGates = 1;
    bell.measurements = 2;
    bell.interactionDistance = {0, 1};

    DesignPoint small;
    small.trapCapacity = 14;
    DesignPoint large;
    large.trapCapacity = 30;
    const CostPrediction a =
        model.predict(small, bell, featuresOf("linear:6", 14));
    const CostPrediction b =
        model.predict(large, bell, featuresOf("grid:2x3", 30));
    EXPECT_EQ(a.logFidelity, b.logFidelity);
    EXPECT_EQ(a.timeUs, b.timeUs);
}

// ---------------------------------------------------------------------
// Rank agreement with real toolflow points
// ---------------------------------------------------------------------

TEST(AnalyticModel, RanksAppsLikeTheSimulatorOnTheDefaultDevice)
{
    const AnalyticCostModel model;
    const TopologyFeatures topo = featuresOf("linear:6", 22);
    const DesignPoint design;

    SweepEngine engine(1);
    double realBv = 0;
    double realSupremacy = 0;
    double realQft = 0;
    double predBv = 0;
    double predSupremacy = 0;
    double predQft = 0;
    for (const auto &[app, real, pred] :
         {std::tuple<std::string, double *, double *>{"bv", &realBv,
                                                      &predBv},
          {"supremacy", &realSupremacy, &predSupremacy},
          {"qft", &realQft, &predQft}}) {
        const std::shared_ptr<const Circuit> native =
            SweepEngine::lower(makeBenchmark(app));
        *real = runToolflow(*native, design,
                            *engine.context(design), {})
                    .sim.logFidelity;
        *pred = model.predict(design, computeStats(*native), topo)
                    .logFidelity;
    }
    // The simulator orders bv > supremacy > qft here; the surrogate
    // must agree (rank, not magnitude — the estimator over-counts
    // communication on purpose).
    EXPECT_GT(realBv, realSupremacy);
    EXPECT_GT(realSupremacy, realQft);
    EXPECT_GT(predBv, predSupremacy);
    EXPECT_GT(predSupremacy, predQft);
}

// ---------------------------------------------------------------------
// Calibrated surrogate
// ---------------------------------------------------------------------

TEST(CalibratedModel, FitIsReproducibleAndIdempotent)
{
    std::vector<CalibratedCostModel::Sample> samples;
    for (int i = 0; i < 8; ++i) {
        CalibratedCostModel::Sample s;
        s.prior = {-0.5 * i - 0.1, 1000.0 + 300.0 * i};
        s.logFidelity = -0.2 * i - 0.05;
        s.timeUs = 800.0 + 250.0 * i;
        samples.push_back(s);
    }
    CalibratedCostModel a;
    CalibratedCostModel b;
    a.fit(samples);
    b.fit(samples);
    EXPECT_EQ(a.fidelityIntercept(), b.fidelityIntercept());
    EXPECT_EQ(a.fidelitySlope(), b.fidelitySlope());
    EXPECT_EQ(a.timeIntercept(), b.timeIntercept());
    EXPECT_EQ(a.timeSlope(), b.timeSlope());
    a.fit(samples); // refit from scratch, not accumulate
    EXPECT_EQ(a.fidelitySlope(), b.fidelitySlope());
    EXPECT_GT(a.fidelitySlope(), 0.0);
    EXPECT_GT(a.timeSlope(), 0.0);
}

TEST(CalibratedModel, CorrectionNeverInvertsTheAnalyticOrder)
{
    // Anti-correlated samples would fit a negative slope; the
    // monotonicity guard clamps back to identity so ranking is
    // preserved no matter what was measured.
    std::vector<CalibratedCostModel::Sample> samples;
    for (int i = 0; i < 6; ++i) {
        CalibratedCostModel::Sample s;
        s.prior = {-1.0 * i, 1000.0};
        s.logFidelity = +0.5 * i - 10.0; // opposite direction
        s.timeUs = 1000.0;
        samples.push_back(s);
    }
    CalibratedCostModel model;
    model.fit(samples);
    EXPECT_GT(model.fidelitySlope(), 0.0);

    const CostPrediction betterPrior{-0.1, 500.0};
    const CostPrediction worsePrior{-2.0, 500.0};
    EXPECT_GT(model.correct(betterPrior).logFidelity,
              model.correct(worsePrior).logFidelity);
}

TEST(CalibratedModel, FewSamplesFitInterceptOnly)
{
    std::vector<CalibratedCostModel::Sample> samples;
    for (int i = 0; i < 3; ++i) {
        CalibratedCostModel::Sample s;
        s.prior = {-1.0 - i, 1000.0};
        s.logFidelity = -0.5 - i;
        s.timeUs = 2000.0;
        samples.push_back(s);
    }
    CalibratedCostModel model;
    model.fit(samples);
    EXPECT_EQ(model.fidelitySlope(), 1.0);
    EXPECT_EQ(model.timeSlope(), 1.0);
}

} // namespace
} // namespace qccd
