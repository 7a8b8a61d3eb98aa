#include "models/shuttle_time.hpp"

#include "common/error.hpp"

namespace qccd
{

TimeUs
ShuttleTimeModel::junctionCrossing(int degree) const
{
    // Y junctions and straight-through corners (degree 2, e.g. the
    // root of an H-tree or the end of a one-row grid rail) charge the
    // cheaper Y time; X crossings and wider hubs charge the X time.
    panicUnless(degree >= 2, "junction degree must be at least 2");
    return degree <= 3 ? yJunction : xJunction;
}

} // namespace qccd
