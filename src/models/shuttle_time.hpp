/**
 * @file
 * Shuttling primitive durations (paper Table I) plus the physical ion-swap
 * rotation used by IS chain reordering (Kaufmann et al. 2017).
 */

#ifndef QCCD_MODELS_SHUTTLE_TIME_HPP
#define QCCD_MODELS_SHUTTLE_TIME_HPP

#include "common/types.hpp"

namespace qccd
{

/**
 * Durations of the primitive shuttling operations.
 *
 * Defaults are the experimental characterization values the paper adopts
 * (Gutierrez, Muller, Bermudez 2019): move through one segment 5 us,
 * split 80 us, merge 80 us, Y-junction 100 us, X-junction 120 us.
 * The 180-degree two-ion rotation used by physical ion swapping is not in
 * Table I; 50 us is assumed and documented in DESIGN.md.
 */
struct ShuttleTimeModel
{
    TimeUs movePerSegment = 5.0;  ///< linear transport across one segment
    TimeUs split = 80.0;          ///< split an ion off a chain
    TimeUs merge = 80.0;          ///< merge an ion into a chain
    TimeUs yJunction = 100.0;     ///< cross a 3-way junction
    TimeUs xJunction = 120.0;     ///< cross a 4-way junction
    TimeUs ionSwapRotation = 50.0; ///< 180-degree rotation for an IS hop

    /** Junction crossing time by junction degree (<= 3 -> Y, else X). */
    TimeUs junctionCrossing(int degree) const;
};

} // namespace qccd

#endif // QCCD_MODELS_SHUTTLE_TIME_HPP
