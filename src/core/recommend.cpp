#include "core/recommend.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/table.hpp"
#include "core/sweep_engine.hpp"

namespace qccd
{

size_t
CandidateSpace::size() const
{
    return topologies.size() * capacities.size() * gates.size() *
           reorders.size();
}

SweepPlan
CandidateSpace::plan(const PlannedPoint &base, SweepEngine &engine) const
{
    SweepPlan plan;
    std::vector<SweepGrid::Axis> axes(2);
    axes[0].key = "gate";
    for (const GateImpl gate : gates)
        axes[0].values.push_back([gate](PlannedPoint &point) {
            point.design.hw.gateImpl = gate;
        });
    axes[1].key = "reorder";
    for (const ReorderMethod reorder : reorders)
        axes[1].values.push_back([reorder](PlannedPoint &point) {
            point.design.hw.reorder = reorder;
        });
    for (const std::string &topo : topologies) {
        for (const int cap : capacities) {
            PlannedPoint grid = base;
            grid.design.topologySpec = topo;
            grid.design.trapCapacity = cap;
            // The shared context also answers the fit check without
            // building a throwaway topology per candidate.
            if (engine.context(grid.design)->topology().totalCapacity() <
                base.native->numQubits())
                continue; // application does not fit
            plan.grids.emplace_back(std::move(grid), axes);
        }
    }
    fatalUnless(plan.size() > 0,
                "no candidate design fits the application");
    return plan;
}

std::vector<RankedDesign>
rankDesigns(const Circuit &circuit, const CandidateSpace &space,
            int jobs)
{
    SweepEngine engine(jobs);
    PlannedPoint base;
    base.application = circuit.name();
    base.native = SweepEngine::lower(circuit);
    const SweepPlan plan = space.plan(base, engine);

    const std::vector<size_t> all = indexRange(0, plan.size());
    std::vector<RankedDesign> ranking;
    ranking.reserve(all.size());
    SweepSpecRunner(engine).run(
        plan, all,
        [&](size_t, const SweepPoint &p) {
            ranking.emplace_back(p.design, p.result);
        },
        {}, all.size());
    std::stable_sort(ranking.begin(), ranking.end(), RankedDesign::before);
    return ranking;
}

RankedDesign
recommendDesign(const Circuit &circuit, const CandidateSpace &space,
                int jobs)
{
    return rankDesigns(circuit, space, jobs).front();
}

std::string
rankingTable(const std::vector<RankedDesign> &ranking, size_t show)
{
    TextTable table;
    table.addRow({"rank", "design", "fidelity", "log-fid", "time (s)"});
    for (size_t i = 0; i < std::min(show, ranking.size()); ++i) {
        const RankedDesign &r = ranking[i];
        table.addRow({std::to_string(i + 1), r.design.label(),
                      formatSci(r.result.fidelity(), 3),
                      formatSig(r.score(), 4),
                      formatSig(r.result.totalTime() / kSecondUs, 4)});
    }
    return table.render();
}

} // namespace qccd
