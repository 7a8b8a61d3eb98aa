#include "core/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "arch/topology.hpp"
#include "models/model_tables.hpp"

namespace qccd
{

namespace
{

/**
 * Tuning constants of the analytic estimator. They shape predicted
 * magnitudes, not the physical per-op terms (those come straight from
 * ModelTables); the golden-rediscovery differential in
 * tests/test_search.cpp is the regression net for their values.
 */

/** Extra shuttles forced per remote gate when arrival space is scarce
 *  (evictions): scaled by 1 / (1 + bufferSlots). */
constexpr double kEvictionPressure = 1.0;

/** Shuttle-traffic saturation: the scheduler serves consecutive gates
 *  on a shuttled ion with one trip, so traffic tops out near this many
 *  visits per (qubit, foreign trap) pair. */
constexpr double kShuttleRevisits = 1.0;

/** Chain-reorder swaps per shuttle (GS inserts 3 MS gates each). */
constexpr double kSwapsPerShuttle = 1.1;

/** Fraction of accumulated shuttle heating a chain retains. */
constexpr double kHeatRetention = 0.3;

/** IS reorder heating per chain ion: a hop is a split + merge (2 x k1)
 *  and a reorder hops about half the chain, so one reorder deposits
 *  roughly chain x k1 quanta. */
constexpr double kIonSwapHeat = 1.0;

/** Recool attenuation exponent (nbar *= recool^exponent). */
constexpr double kRecoolExponent = 0.5;

/** Marginal speedup per additional occupied trap (gate parallelism). */
constexpr double kParallelFraction = 0.5;

/** Fraction of shuttle traffic on the makespan's critical path. */
constexpr double kShuttleSerialization = 0.5;

} // namespace

TopologyFeatures
extractTopologyFeatures(const Topology &topo)
{
    TopologyFeatures f;
    f.traps = topo.trapCount();
    f.junctions = topo.junctionCount();
    f.edges = topo.edgeCount();
    f.totalCapacity = topo.totalCapacity();

    for (TrapId t = 0; t < topo.trapCount(); ++t) {
        const int cap = topo.node(topo.trapNode(t)).capacity;
        f.minTrapCapacity =
            t == 0 ? cap : std::min(f.minTrapCapacity, cap);
        f.maxTrapCapacity = std::max(f.maxTrapCapacity, cap);
    }

    // BFS from every trap (hop-count shortest paths, deterministic
    // adjacency order); accumulate path statistics over unordered
    // trap pairs by walking the parent chain back to the source.
    const int nodes = topo.nodeCount();
    size_t pairs = 0;
    double sumEdges = 0;
    double sumSegments = 0;
    double sumTraps = 0;
    double sumJ3 = 0;
    double sumJ4 = 0;
    std::vector<int> parentNode(static_cast<size_t>(nodes));
    std::vector<EdgeId> parentEdge(static_cast<size_t>(nodes));
    std::vector<char> seen(static_cast<size_t>(nodes));
    for (TrapId t = 0; t < topo.trapCount(); ++t) {
        const NodeId source = topo.trapNode(t);
        std::fill(seen.begin(), seen.end(), char{0});
        std::queue<NodeId> frontier;
        frontier.push(source);
        seen[static_cast<size_t>(source)] = 1;
        parentNode[static_cast<size_t>(source)] = source;
        while (!frontier.empty()) {
            const NodeId at = frontier.front();
            frontier.pop();
            for (const EdgeId e : topo.incidentEdges(at)) {
                const NodeId next = topo.edge(e).other(at);
                if (seen[static_cast<size_t>(next)])
                    continue;
                seen[static_cast<size_t>(next)] = 1;
                parentNode[static_cast<size_t>(next)] = at;
                parentEdge[static_cast<size_t>(next)] = e;
                frontier.push(next);
            }
        }
        for (TrapId u = t + 1; u < topo.trapCount(); ++u) {
            NodeId at = topo.trapNode(u);
            int pathEdges = 0;
            int pathSegments = 0;
            while (at != source) {
                ++pathEdges;
                pathSegments +=
                    topo.edge(parentEdge[static_cast<size_t>(at)])
                        .segments;
                const NodeId prev =
                    parentNode[static_cast<size_t>(at)];
                if (prev != source) {
                    const TopoNode &via = topo.node(prev);
                    if (via.kind == NodeKind::Trap)
                        sumTraps += 1;
                    else if (topo.degree(prev) <= 3)
                        sumJ3 += 1;
                    else
                        sumJ4 += 1;
                }
                at = prev;
            }
            ++pairs;
            sumEdges += pathEdges;
            sumSegments += pathSegments;
            f.diameterEdges = std::max(f.diameterEdges, pathEdges);
        }
    }
    if (pairs > 0) {
        const auto count = static_cast<double>(pairs);
        f.meanPathEdges = sumEdges / count;
        f.meanPathSegments = sumSegments / count;
        f.meanPathTraps = sumTraps / count;
        f.meanPathJunctions3 = sumJ3 / count;
        f.meanPathJunctions4 = sumJ4 / count;
    }
    return f;
}

CostPrediction
AnalyticCostModel::predict(const DesignPoint &design,
                           const CircuitStats &stats,
                           const TopologyFeatures &topo) const
{
    const HardwareParams &hw = design.hw;
    const int capMax =
        std::max({2, topo.maxTrapCapacity, design.trapCapacity});
    const std::shared_ptr<const ModelTables> tables =
        ModelTables::shared(hw, capMax);

    // Packed placement fills traps to capacity minus the reserved
    // buffer slots; chains at that fill set the MS-gate regime.
    const double traps = std::max(1, topo.traps);
    const double capMean =
        topo.traps > 0
            ? static_cast<double>(topo.totalCapacity) / traps
            : static_cast<double>(design.trapCapacity);
    const double usable = std::max(2.0, capMean - hw.bufferSlots);
    const double n = std::max(1, stats.numQubits);
    const double chain = std::clamp(n, 2.0, usable);
    const double trapsUsed =
        std::clamp(std::ceil(n / usable), 1.0, traps);

    // Remote-gate estimate: under packed consecutive placement, a
    // gate spanning index distance d crosses a trap boundary with
    // probability ~ min(1, d / usable). Zero when everything fits one
    // trap — single-trap applications then predict identically across
    // capacities and topologies, matching the simulator.
    double remote = 0;
    if (n > usable) {
        for (size_t d = 1; d < stats.interactionDistance.size(); ++d)
            remote += stats.interactionDistance[d] *
                      std::min(1.0, static_cast<double>(d) / usable);
        // Scheduler locality: once an ion has shuttled over,
        // consecutive gates on it are served by the same trip, so
        // traffic saturates near one visit per (qubit, foreign trap).
        remote = std::min(
            remote, kShuttleRevisits * n * (trapsUsed - 1.0));
    }
    const double evictions =
        remote * (kEvictionPressure / (1.0 + hw.bufferSlots));
    const double shuttles = remote + evictions;

    // Mean shuttle route over the device graph (feature digest).
    const double hopSegments = std::max(1.0, topo.meanPathSegments);
    const double hopTraps = topo.meanPathTraps;
    const double junctionsY = topo.meanPathJunctions3;
    const double junctionsX = topo.meanPathJunctions4;

    // Heating: k1 quanta per split/merge (pass-through traps split and
    // merge again), k2 per segment and junction crossing; IS reorder
    // rotates chains instead of swapping gates, which heats more.
    double perShuttleQuanta =
        (2.0 + hopTraps) * hw.heatingK1 +
        (hopSegments + junctionsY + junctionsX) * hw.heatingK2;
    if (hw.reorder == ReorderMethod::IS)
        perShuttleQuanta += kIonSwapHeat * chain * hw.heatingK1;
    const double nbar = kHeatRetention * (shuttles / trapsUsed) *
                        perShuttleQuanta *
                        std::pow(hw.recoolFactor, kRecoolExponent);

    // MS gate at the packed chain length, mid-chain separation; error
    // terms are the simulator's own per-op values via ModelTables.
    const int chainLen = std::max(2, static_cast<int>(chain));
    const int separation = std::max(1, chainLen / 2);
    const TimeUs tau = tables->twoQubit(separation, chainLen);
    const double err2 =
        std::min(tables->msError(tau, chainLen, nbar).total(),
                 0.999999);
    const double logMs = std::log1p(-err2);

    // GS reorder executes 3 extra MS gates per swap.
    double reorderMs = 0;
    if (hw.reorder == ReorderMethod::GS)
        reorderMs = kSwapsPerShuttle * 3.0 * shuttles;
    const double msTotal = stats.twoQubitGates + reorderMs;

    const double logFidelity =
        msTotal * logMs +
        stats.oneQubitGates * tables->logOneQubitFidelity() +
        stats.measurements * tables->logMeasureFidelity();

    // Runtime: serial gate time shared across occupied traps, plus
    // the serialized share of the shuttle traffic.
    const GateTimeModel &gate = tables->gateTime();
    const double gateTime =
        stats.oneQubitGates * gate.oneQubit() +
        stats.measurements * gate.measure() + msTotal * tau;
    const ShuttleTimeModel &shuttle = hw.shuttle;
    double perShuttleTime =
        shuttle.split + shuttle.merge +
        shuttle.movePerSegment * hopSegments +
        junctionsY * shuttle.yJunction +
        junctionsX * shuttle.xJunction;
    if (hw.reorder == ReorderMethod::IS)
        // A reorder hops ~half the chain; each hop is an isolate,
        // rotate, reassemble sequence.
        perShuttleTime += 0.5 * chain *
                          (shuttle.split + shuttle.ionSwapRotation +
                           shuttle.merge);
    const double parallelism =
        1.0 + kParallelFraction * (trapsUsed - 1.0);
    const double timeUs =
        gateTime / parallelism +
        kShuttleSerialization * shuttles * perShuttleTime;

    return {logFidelity, timeUs};
}

namespace
{

/**
 * Least-squares slope/intercept of y on x, accumulated in index order
 * (bit-reproducible for identical input order). Falls back to the
 * identity slope when the fit is unusable: too few samples, a
 * degenerate x spread, or a non-positive slope (the monotonicity
 * guard — calibration must never invert the analytic ranking).
 */
void
fitAffine(const std::vector<double> &x, const std::vector<double> &y,
          double &intercept, double &slope)
{
    const size_t n = x.size();
    intercept = 0;
    slope = 1;
    if (n == 0)
        return;
    double meanX = 0;
    double meanY = 0;
    for (size_t i = 0; i < n; ++i) {
        meanX += x[i];
        meanY += y[i];
    }
    meanX /= static_cast<double>(n);
    meanY /= static_cast<double>(n);
    if (n >= CalibratedCostModel::kSlopeFitMinSamples) {
        double varX = 0;
        double covXY = 0;
        for (size_t i = 0; i < n; ++i) {
            varX += (x[i] - meanX) * (x[i] - meanX);
            covXY += (x[i] - meanX) * (y[i] - meanY);
        }
        if (varX > 0) {
            const double fitted = covXY / varX;
            if (fitted > 0)
                slope = fitted;
        }
    }
    intercept = meanY - slope * meanX;
}

/** Guard against log(0) from degenerate predicted/measured times. */
double
safeLog(double value)
{
    return std::log(std::max(value, 1e-9));
}

} // namespace

void
CalibratedCostModel::fit(const std::vector<Sample> &samples)
{
    std::vector<double> x;
    std::vector<double> y;
    x.reserve(samples.size());
    y.reserve(samples.size());
    for (const Sample &s : samples) {
        x.push_back(s.prior.logFidelity);
        y.push_back(s.logFidelity);
    }
    fitAffine(x, y, fidA_, fidB_);
    x.clear();
    y.clear();
    for (const Sample &s : samples) {
        x.push_back(safeLog(s.prior.timeUs));
        y.push_back(safeLog(s.timeUs));
    }
    fitAffine(x, y, timeA_, timeB_);
}

CostPrediction
CalibratedCostModel::correct(const CostPrediction &prior) const
{
    CostPrediction out;
    out.logFidelity = fidA_ + fidB_ * prior.logFidelity;
    out.timeUs =
        std::exp(timeA_ + timeB_ * safeLog(prior.timeUs));
    return out;
}

} // namespace qccd
