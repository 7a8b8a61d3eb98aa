/**
 * @file
 * google-benchmark microbenchmarks: throughput of the physical models,
 * the OpenQASM parser, workload generation, lowering, the result
 * store's circuit digest, and the full compile + simulate toolflow.
 * These verify the simulator itself is fast enough for large
 * design-space sweeps (hundreds of runs per figure).
 */

#include <benchmark/benchmark.h>

#include "arch/builders.hpp"
#include "arch/path.hpp"
#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "circuit/qasm/parser.hpp"
#include "circuit/qasm/writer.hpp"
#include "compiler/scheduler.hpp"
#include "core/result_store.hpp"
#include "core/sweep_engine.hpp"
#include "core/toolflow.hpp"
#include "models/model_tables.hpp"
#include "sim/isa.hpp"

namespace
{

using namespace qccd;

void
BM_GateTimeModel(benchmark::State &state)
{
    const GateTimeModel model(GateImpl::FM);
    int d = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.twoQubit(1 + d % 19, 20));
        ++d;
    }
}
BENCHMARK(BM_GateTimeModel);

void
BM_FidelityModel(benchmark::State &state)
{
    const FidelityModel model;
    double nbar = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.twoQubitError(200.0, 20, nbar));
        nbar += 0.01;
    }
}
BENCHMARK(BM_FidelityModel);

void
BM_PathFinderConstruction(benchmark::State &state)
{
    const Topology topo = makeGrid(2, static_cast<int>(state.range(0)),
                                   20);
    for (auto _ : state) {
        PathFinder finder(topo, PathCost{});
        benchmark::DoNotOptimize(finder.cost(0, topo.trapCount() - 1));
    }
}
BENCHMARK(BM_PathFinderConstruction)->Arg(3)->Arg(8)->Arg(16);

void
BM_QasmParse(benchmark::State &state)
{
    const std::string text = qasm::write(makeQft(32));
    for (auto _ : state) {
        const Circuit c = qasm::parse(text);
        benchmark::DoNotOptimize(c.size());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * text.size());
}
BENCHMARK(BM_QasmParse);

void
BM_GenerateSupremacy(benchmark::State &state)
{
    for (auto _ : state) {
        const Circuit c = makeSupremacy(8, 8, 560);
        benchmark::DoNotOptimize(c.size());
    }
}
BENCHMARK(BM_GenerateSupremacy);

void
BM_DecomposeQft(benchmark::State &state)
{
    const Circuit qft = makeQft(64);
    for (auto _ : state) {
        const Circuit native = decomposeToNative(qft);
        benchmark::DoNotOptimize(native.size());
    }
}
BENCHMARK(BM_DecomposeQft);

/** The result store's digest of an already lowered circuit (a point
 *  that carries its own native circuit, as --recommend's do). */
void
BM_CircuitDigest(benchmark::State &state, const char *app)
{
    const Circuit native = decomposeToNative(makeBenchmark(app));
    for (auto _ : state)
        benchmark::DoNotOptimize(ResultStore::circuitDigest(native));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(native.size()));
}
BENCHMARK_CAPTURE(BM_CircuitDigest, qft, "qft");
BENCHMARK_CAPTURE(BM_CircuitDigest, supremacy, "supremacy");

/** The same digest folded from the source circuit, as a warm rerun
 *  keys a point: BM_DecomposeQft plus BM_CircuitDigest/qft is the
 *  lower-then-digest path it replaces. Items are native gates. */
void
BM_LoweredCircuitDigest(benchmark::State &state, const char *app)
{
    const Circuit source = makeBenchmark(app);
    const size_t native = decomposeToNative(source).size();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            ResultStore::loweredCircuitDigest(source));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(native));
}
BENCHMARK_CAPTURE(BM_LoweredCircuitDigest, qft, "qft");

void
BM_ScheduleQft(benchmark::State &state)
{
    const Circuit native = decomposeToNative(
        makeQft(static_cast<int>(state.range(0))));
    const Topology topo = makeLinear(6, 22);
    HardwareParams hw;
    for (auto _ : state) {
        ScheduleOptions sched_options;
        sched_options.collectTrace = false;
        Scheduler sched(native, topo, hw, sched_options);
        benchmark::DoNotOptimize(sched.run().metrics.makespan);
    }
}
BENCHMARK(BM_ScheduleQft)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void
BM_ScheduleWide(benchmark::State &state, const char *app, int qubits,
                const char *topology, int capacity)
{
    // Hundreds of qubits over a few dozen traps: the inputs with the
    // scheduler's longest ready lists. Shared lowered circuit, context
    // and scratch, so the loop times one schedule pass per iteration.
    const Circuit native =
        decomposeToNative(makeBenchmarkSized(app, qubits));
    DesignPoint dp;
    dp.topologySpec = topology;
    dp.trapCapacity = capacity;
    const ToolflowContext context(dp);
    SchedulerScratch scratch;
    for (auto _ : state) {
        const RunResult r = runToolflow(native, dp, context, {}, &scratch);
        benchmark::DoNotOptimize(r.sim.makespan);
        benchmark::DoNotOptimize(r.sim.logFidelity);
    }
}
BENCHMARK_CAPTURE(BM_ScheduleWide, qaoa512_grid5x5, "qaoa", 512,
                  "grid:5x5", 24)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScheduleWide, qft256_grid4x4, "qft", 256,
                  "grid:4x4", 20)
    ->Unit(benchmark::kMillisecond);

void
BM_FullToolflowSupremacy(benchmark::State &state)
{
    const Circuit app = makeBenchmark("supremacy");
    const DesignPoint dp = DesignPoint::linear(6, 22);
    for (auto _ : state) {
        const RunResult r = runToolflow(app, dp);
        benchmark::DoNotOptimize(r.fidelity());
    }
}
BENCHMARK(BM_FullToolflowSupremacy)->Unit(benchmark::kMillisecond);

void
BM_ToolflowSharedContext(benchmark::State &state)
{
    // Same workload as BM_FullToolflowSupremacy minus the per-run
    // lowering and Topology/PathFinder construction: the gap between
    // the two is the fixed cost the SweepEngine caches away per point.
    const Circuit native = decomposeToNative(makeBenchmark("supremacy"));
    const DesignPoint dp = DesignPoint::linear(6, 22);
    const ToolflowContext context(dp);
    for (auto _ : state) {
        const RunResult r = runToolflow(native, dp, context);
        benchmark::DoNotOptimize(r.fidelity());
    }
}
BENCHMARK(BM_ToolflowSharedContext)->Unit(benchmark::kMillisecond);

void
BM_ToolflowPoint(benchmark::State &state)
{
    // One design point exactly as a sweep worker evaluates it: shared
    // lowered circuit and ToolflowContext, pooled SchedulerScratch,
    // and the two-pass runtime decomposition (the Fig. 6 workload).
    // This is the per-point number the >= 2x PR-3 target is measured
    // on; scripts/run_benches.sh exports it as toolflow_point_us.
    const Circuit native = decomposeToNative(makeBenchmark("supremacy"));
    const DesignPoint dp = DesignPoint::linear(6, 22);
    const ToolflowContext context(dp);
    RunOptions options;
    options.decomposeRuntime = true;
    SchedulerScratch scratch;
    for (auto _ : state) {
        const RunResult r =
            runToolflow(native, dp, context, options, &scratch);
        benchmark::DoNotOptimize(r.fidelity());
    }
}
BENCHMARK(BM_ToolflowPoint)->Unit(benchmark::kMillisecond);

void
BM_StagedMicroarchGrid(benchmark::State &state)
{
    // Fig. 8's per-application block: one lowered circuit on 4 gate
    // implementations x 2 reorder methods x 6 capacities of linear:6,
    // through one StagedToolflow as a sweep worker runs a batch. Every
    // point has its own schedule key, so all 48 are full schedules of
    // the same circuit: the shape that shares one schedule plan.
    const Circuit native = decomposeToNative(makeBenchmark("qft"));
    const std::vector<int> capacities{14, 18, 22, 26, 30, 34};
    std::vector<ToolflowContext> contexts;
    for (int cap : capacities)
        contexts.emplace_back(DesignPoint::linear(6, cap));
    for (auto _ : state) {
        StagedToolflow staged;
        for (GateImpl gate :
             {GateImpl::AM1, GateImpl::AM2, GateImpl::FM, GateImpl::PM}) {
            for (ReorderMethod reorder :
                 {ReorderMethod::GS, ReorderMethod::IS}) {
                for (size_t c = 0; c < capacities.size(); ++c) {
                    const RunResult r = staged.run(
                        native,
                        DesignPoint::linear(6, capacities[c], gate,
                                            reorder),
                        contexts[c], {});
                    benchmark::DoNotOptimize(r.sim.makespan);
                    benchmark::DoNotOptimize(r.sim.logFidelity);
                }
            }
        }
    }
}
BENCHMARK(BM_StagedMicroarchGrid)->Unit(benchmark::kMillisecond);

void
BM_ModelTablesLookup(benchmark::State &state)
{
    HardwareParams hw;
    const auto tables = ModelTables::shared(hw, 30);
    int d = 1;
    for (auto _ : state) {
        const int sep = 1 + d % 19;
        benchmark::DoNotOptimize(tables->twoQubit(sep, 20));
        benchmark::DoNotOptimize(tables->scaleFactorA(20));
        ++d;
    }
}
BENCHMARK(BM_ModelTablesLookup);

void
BM_WriteIsa(benchmark::State &state)
{
    const Circuit c = makeBenchmarkSized("squareroot", 20);
    const ScheduleResult r =
        runToolflowDetailed(c, DesignPoint::linear(3, 10));
    size_t bytes = 0;
    for (auto _ : state) {
        const std::string text = writeIsa(r.trace);
        bytes = text.size();
        benchmark::DoNotOptimize(text.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(bytes));
}
BENCHMARK(BM_WriteIsa);

void
BM_ParseIsa(benchmark::State &state)
{
    const Circuit c = makeBenchmarkSized("squareroot", 20);
    const ScheduleResult r =
        runToolflowDetailed(c, DesignPoint::linear(3, 10));
    const std::string text = writeIsa(r.trace);
    for (auto _ : state) {
        const Trace parsed = parseIsa(text);
        benchmark::DoNotOptimize(parsed.size());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseIsa);

/**
 * The batch of examples/sweeps/sensitivity_fidelity.sweep: 2 apps x 2
 * gate implementations x 5 co-varied model-knob sets = 20 points but
 * only 4 distinct schedule keys.
 */
std::vector<SweepJob>
sensitivityJobs()
{
    struct Knobs
    {
        double gamma;
        double kappa;
    };
    const Knobs knobs[] = {{0.5, 2.5e-6},
                           {1.0, 5e-6},
                           {2.0, 1e-5},
                           {5.0, 2.5e-5},
                           {10.0, 5e-5}};
    std::vector<SweepJob> jobs;
    for (const char *app : {"qft", "supremacy"}) {
        const auto native = SweepEngine::lower(makeBenchmark(app));
        for (GateImpl gate : {GateImpl::FM, GateImpl::AM1}) {
            for (const Knobs &k : knobs) {
                SweepJob job;
                job.application = app;
                job.native = native;
                job.design = DesignPoint::linear(6, 22, gate);
                job.design.hw.gammaPerS = k.gamma;
                job.design.hw.kappa = k.kappa;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

/** Fig. 8's qft block: 4 gate implementations x 2 reorder methods x
 *  6 capacities of linear:6, 48 points with 48 schedule keys. */
std::vector<SweepJob>
fig8QftJobs()
{
    const auto native = SweepEngine::lower(makeBenchmark("qft"));
    std::vector<SweepJob> jobs;
    for (GateImpl gate :
         {GateImpl::AM1, GateImpl::AM2, GateImpl::FM, GateImpl::PM})
        for (ReorderMethod reorder : {ReorderMethod::GS, ReorderMethod::IS})
            for (int cap : {14, 18, 22, 26, 30, 34})
                jobs.push_back({"qft", native,
                                DesignPoint::linear(6, cap, gate, reorder),
                                {}});
    return jobs;
}

void
BM_SweepEngineBatch(benchmark::State &state,
                    std::vector<SweepJob> (*make)())
{
    // SweepEngine::run on one batch as a --sweep invocation runs it;
    // Arg is the worker count. The jobs share their lowered circuits,
    // and the engine keeps its contexts across iterations (a warm-up
    // run builds them), so an iteration times grouping, the worker
    // pool and evaluation.
    // Counters are per batch: model logs recorded, full schedules and
    // replays.
    SweepEngine engine(static_cast<int>(state.range(0)));
    const std::vector<SweepJob> batch = make();
    engine.run(batch);
    const StagedToolflow::Stats before = engine.deltaStats();
    for (auto _ : state) {
        const auto points = engine.run(batch);
        benchmark::DoNotOptimize(points.data());
    }
    const StagedToolflow::Stats &after = engine.deltaStats();
    const auto perBatch = [](size_t total) {
        return benchmark::Counter(static_cast<double>(total),
                                  benchmark::Counter::kAvgIterations);
    };
    state.counters["logs"] =
        perBatch(after.logsRecorded - before.logsRecorded);
    state.counters["full"] =
        perBatch(after.fullSchedules - before.fullSchedules);
    state.counters["replays"] = perBatch(after.replays - before.replays);
}
BENCHMARK_CAPTURE(BM_SweepEngineBatch, fig8_qft, fig8QftJobs)
    ->Arg(1)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SweepEngineBatch, sensitivity, sensitivityJobs)
    ->Arg(1)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

void
BM_SweepDelta(benchmark::State &state)
{
    // The staged toolflow's delta-evaluation win on the sensitivity
    // batch: a serial engine must schedule once per key and replay the
    // rest; the counters (exported to BENCH_SUMMARY.json by
    // scripts/run_benches.sh) pin the >= 2x fewer-full-schedules
    // acceptance target.
    const std::vector<SweepJob> jobs = sensitivityJobs();

    size_t points = 0;
    size_t full = 0;
    size_t replays = 0;
    for (auto _ : state) {
        SweepEngine engine(1);
        const auto results = engine.run(jobs);
        benchmark::DoNotOptimize(results.size());
        points += results.size();
        full += engine.deltaStats().fullSchedules;
        replays += engine.deltaStats().replays;
    }
    state.counters["points"] = static_cast<double>(points);
    state.counters["full_schedules"] = static_cast<double>(full);
    state.counters["replays"] = static_cast<double>(replays);
}
BENCHMARK(BM_SweepDelta)->Unit(benchmark::kMillisecond);

} // namespace
