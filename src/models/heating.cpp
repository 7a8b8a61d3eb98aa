#include "models/heating.hpp"

#include "common/error.hpp"

namespace qccd
{

std::pair<Quanta, Quanta>
HeatingModel::afterSplit(Quanta parent_energy, int ions_a, int ions_b) const
{
    panicUnless(ions_a >= 1 && ions_b >= 1,
                "split sub-chains must each hold at least one ion");
    panicUnless(parent_energy >= 0, "chain energy cannot be negative");
    const double total = ions_a + ions_b;
    const Quanta share_a = parent_energy * (ions_a / total);
    const Quanta share_b = parent_energy * (ions_b / total);
    return {share_a + k1_, share_b + k1_};
}

Quanta
HeatingModel::afterMerge(Quanta energy_a, Quanta energy_b) const
{
    panicUnless(energy_a >= 0 && energy_b >= 0,
                "chain energy cannot be negative");
    return energy_a + energy_b + k1_;
}

Quanta
HeatingModel::afterMove(Quanta energy, int segments) const
{
    panicUnless(segments >= 0, "segment count cannot be negative");
    return energy + k2_ * segments;
}

Quanta
HeatingModel::afterMoves(Quanta energy, int segments) const
{
    panicUnless(segments >= 0, "segment count cannot be negative");
    // energy + k2*1 == energy + k2 bitwise (IEEE multiply by one is
    // exact), so this is afterMove(e, 1) iterated without the call.
    for (int s = 0; s < segments; ++s)
        energy += k2_;
    return energy;
}

Quanta
HeatingModel::afterJunction(Quanta energy) const
{
    return energy + k2_;
}

} // namespace qccd
