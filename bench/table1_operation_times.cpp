/**
 * @file
 * Reproduces Table I: operation times for each shuttling primitive, plus
 * the gate-time model fits of Section VII-A evaluated on representative
 * geometries. These are model inputs; printing them verifies the
 * configured constants match the paper.
 */

#include <iostream>

#include "common/table.hpp"
#include "models/params.hpp"

int
main()
{
    using namespace qccd;

    std::cout << "=== Table I: shuttling operation times ===\n";
    const ShuttleTimeModel shuttle;
    TextTable t1;
    t1.addRow({"Operation", "Time (us)"});
    t1.addRow({"Move ion through one segment",
               formatSig(shuttle.movePerSegment, 3)});
    t1.addRow({"Splitting operation on a chain",
               formatSig(shuttle.split, 3)});
    t1.addRow({"Merging an ion with a chain",
               formatSig(shuttle.merge, 3)});
    t1.addRow({"Crossing Y-junction", formatSig(shuttle.yJunction, 3)});
    t1.addRow({"Crossing X-junction", formatSig(shuttle.xJunction, 3)});
    t1.addRow({"Ion-swap rotation (IS hop, assumed)",
               formatSig(shuttle.ionSwapRotation, 3)});
    std::cout << t1.render() << "\n";

    std::cout << "=== Section VII-A: two-qubit gate time fits (us) ===\n";
    TextTable t2;
    t2.addRow({"impl", "d=1,N=15", "d=7,N=15", "d=14,N=15", "d=1,N=30",
               "d=29,N=30"});
    HardwareParams hw;
    for (GateImpl impl : {GateImpl::AM1, GateImpl::AM2, GateImpl::PM,
                          GateImpl::FM}) {
        hw.gateImpl = impl;
        const GateTimeModel model = hw.gateTimeModel();
        t2.addRow({gateImplName(impl),
                   formatSig(model.twoQubit(1, 15), 4),
                   formatSig(model.twoQubit(7, 15), 4),
                   formatSig(model.twoQubit(14, 15), 4),
                   formatSig(model.twoQubit(1, 30), 4),
                   formatSig(model.twoQubit(29, 30), 4)});
    }
    std::cout << t2.render();
    return 0;
}
