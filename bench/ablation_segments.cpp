/**
 * @file
 * Ablation: segments per inter-trap edge. The paper's Table I charges
 * 5 us and k2 heating per segment; real devices differ in how many
 * segments separate traps. This sweep shows the (small) runtime and
 * fidelity sensitivity, confirming split/merge - not linear transport -
 * dominates shuttling cost.
 */

#include <iostream>

#include "benchgen/benchgen.hpp"
#include "common/table.hpp"
#include "core/sweep_engine.hpp"

int
main()
{
    using namespace qccd;

    // Each segment count is a distinct architecture (expressed with the
    // ":sN" spec suffix), so the engine builds five contexts and shares
    // each between the two applications.
    SweepEngine engine;
    std::vector<SweepJob> jobs;
    const std::vector<int> segmentCounts{1, 2, 4, 8, 16};
    for (const char *app : {"qft", "bv"}) {
        const auto native = SweepEngine::lower(makeBenchmark(app));
        for (int segments : segmentCounts) {
            SweepJob job;
            job.application = app;
            job.native = native;
            job.design = DesignPoint::linear(6, 22);
            job.design.topologySpec =
                "linear:6:s" + std::to_string(segments);
            jobs.push_back(std::move(job));
        }
    }
    const auto points = engine.run(jobs);

    std::cout << "=== Ablation: segments per inter-trap edge "
                 "(linear:6 cap=22, FM-GS) ===\n";
    TextTable table;
    table.addRow({"app", "segments/edge", "time (s)", "fidelity",
                  "segments moved"});
    size_t at = 0;
    for (const char *app : {"qft", "bv"}) {
        for (int segments : segmentCounts) {
            const RunResult &r = points[at++].result;
            table.addRow(
                {app, std::to_string(segments),
                 formatSig(r.totalTime() / kSecondUs, 4),
                 formatSci(r.fidelity(), 3),
                 std::to_string(r.sim.counts.segmentsMoved)});
        }
    }
    std::cout << table.render();
    return 0;
}
