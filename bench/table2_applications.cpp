/**
 * @file
 * Reproduces Table II: the application suite with qubit counts,
 * two-qubit gate counts (in the native MS basis, as the paper counts
 * QFT), and communication-pattern labels derived from the interaction
 * histogram. Paper targets are printed alongside for comparison.
 */

#include <iostream>

#include "benchgen/benchgen.hpp"
#include "circuit/stats.hpp"
#include "common/table.hpp"
#include "core/sweep_engine.hpp"

namespace
{

struct PaperRow
{
    const char *name;
    int qubits;
    int gates;
    const char *pattern;
};

constexpr PaperRow kPaper[] = {
    {"supremacy", 64, 560, "Nearest neighbor gates"},
    {"qaoa", 64, 1260, "Nearest neighbor gates"},
    {"squareroot", 78, 1028, "Short and long-range gates"},
    {"qft", 64, 4032, "All distances"},
    {"adder", 64, 545, "Short range gates"},
    {"bv", 64, 64, "Short and long-range gates"},
};

} // namespace

int
main()
{
    using namespace qccd;

    std::cout << "=== Table II: applications (generated vs paper) ===\n";
    TextTable table;
    table.addRow({"Application", "Qubits", "2Q gates (native)",
                  "Pattern (derived)", "Paper qubits", "Paper 2Q",
                  "Paper pattern"});
    // The same generate + lower as every sweep, so Table II reports
    // exactly the circuits the figure specs schedule.
    for (const PaperRow &row : kPaper) {
        const CircuitStats s = computeStats(
            *SweepEngine::lower(makeBenchmark(row.name)));
        table.addRow({row.name, std::to_string(s.numQubits),
                      std::to_string(s.twoQubitGates), s.patternLabel(),
                      std::to_string(row.qubits),
                      std::to_string(row.gates), row.pattern});
    }
    std::cout << table.render();
    std::cout << "\nNotes: QFT counts CPhase as 2 MS gates (the paper's "
                 "64*63 convention).\nSquareRoot/Adder counts differ "
                 "slightly from the paper's ScaffCC builds; the qubit\n"
                 "counts and communication patterns match (see "
                 "EXPERIMENTS.md).\n";
    return 0;
}
