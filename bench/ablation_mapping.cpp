/**
 * @file
 * Ablation: initial mapping policy. The paper's greedy heuristic packs
 * qubits into as few traps as possible (maximizing co-location); the
 * alternative spreads qubits evenly across all traps (shorter chains,
 * faster FM gates, more headroom, but more cross-trap gates). This
 * sweep quantifies that trade-off per application.
 */

#include <iostream>

#include "benchgen/benchgen.hpp"
#include "common/table.hpp"
#include "core/sweep_engine.hpp"

int
main()
{
    using namespace qccd;

    // The mapping policy is a RunOptions knob: one shared L6 cap=22
    // context serves both policies for all six applications.
    SweepEngine engine;
    std::vector<SweepJob> jobs;
    for (const char *app : {"qft", "qaoa", "supremacy", "squareroot",
                            "bv", "adder"}) {
        const auto native = SweepEngine::lower(makeBenchmark(app));
        for (MappingPolicy policy : {MappingPolicy::Packed,
                                     MappingPolicy::Balanced}) {
            SweepJob job;
            job.application = app;
            job.native = native;
            job.design = DesignPoint::linear(6, 22);
            job.options.mappingPolicy = policy;
            jobs.push_back(std::move(job));
        }
    }
    const auto points = engine.run(jobs);

    std::cout << "=== Ablation: mapping policy (L6 cap=22, FM-GS) ===\n";
    TextTable table;
    table.addRow({"app", "policy", "time (s)", "fidelity", "shuttles",
                  "reorder MS"});
    // Points come back in job order: (app, policy) nested as above.
    size_t at = 0;
    for (const char *app : {"qft", "qaoa", "supremacy", "squareroot",
                            "bv", "adder"}) {
        for (MappingPolicy policy : {MappingPolicy::Packed,
                                     MappingPolicy::Balanced}) {
            const RunResult &r = points[at++].result;
            table.addRow(
                {app,
                 policy == MappingPolicy::Packed ? "packed" : "balanced",
                 formatSig(r.totalTime() / kSecondUs, 4),
                 formatSci(r.fidelity(), 3),
                 std::to_string(r.sim.counts.shuttles),
                 std::to_string(r.sim.counts.reorderMs)});
        }
    }
    std::cout << table.render();
    std::cout << "\nThe paper's packed policy maximizes co-location; "
                 "balanced placement shortens chains at the cost of "
                 "more shuttling.\n";
    return 0;
}
