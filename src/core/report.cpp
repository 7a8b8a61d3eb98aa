#include "core/report.hpp"

#include <sstream>

#include "common/table.hpp"

namespace qccd
{

std::string
summarizeRun(const std::string &app, const DesignPoint &design,
             const RunResult &result)
{
    std::ostringstream out;
    out << app << " on " << design.label() << ": time "
        << formatSig(result.totalTime() / kSecondUs, 4) << " s, fidelity "
        << formatSci(result.fidelity(), 3) << " (log " <<
        formatSig(result.sim.logFidelity, 4) << "), MS gates "
        << result.sim.counts.algorithmMs << " (+"
        << result.sim.counts.reorderMs << " reorder), shuttles "
        << result.sim.counts.shuttles << ", splits "
        << result.sim.counts.splits << ", max energy "
        << formatSig(result.sim.maxChainEnergy, 4) << " quanta";
    return out.str();
}

} // namespace qccd
