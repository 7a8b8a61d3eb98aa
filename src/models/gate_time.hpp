/**
 * @file
 * Two-qubit Molmer-Sorensen gate duration models (paper Section VII-A).
 *
 * Four laser pulse-modulation schemes are modeled. AM1/AM2/PM durations
 * grow with the in-chain separation of the gate's two ions; FM duration
 * is separation-independent but grows with chain length:
 *
 *   AM1: tau(d) = 100*d - 22        (Wu, Wang, Duan 2018)
 *   AM2: tau(d) = 38*d + 10         (Trout et al. 2018)
 *   PM:  tau(d) = 5*d + 160         (Milne et al. 2018)
 *   FM:  tau(N) = max(13.33*N - 54, 100)   (Leung et al. 2018)
 *
 * All times in microseconds. d is the positional separation between the
 * two ions (adjacent ions: d = 1); N is the chain length. Because the
 * published AM1 fit goes negative at d = 0 the model clamps every duration
 * to a configurable floor (HardwareParams' default: 10 us).
 */

#ifndef QCCD_MODELS_GATE_TIME_HPP
#define QCCD_MODELS_GATE_TIME_HPP

#include <string>

#include "common/types.hpp"

namespace qccd
{

/** Available two-qubit gate pulse-modulation implementations. */
enum class GateImpl
{
    AM1, ///< amplitude modulation, robust variant (slower)
    AM2, ///< amplitude modulation, fast variant
    PM,  ///< phase modulation (weak distance dependence)
    FM   ///< frequency modulation (distance independent)
};

/** Short uppercase name of a gate implementation ("AM1", "FM", ...). */
std::string gateImplName(GateImpl impl);

/** Parse a gate implementation name; throws ConfigError on bad input. */
GateImpl gateImplFromName(const std::string &name);

/** Duration model for native trap operations. */
class GateTimeModel
{
  public:
    /**
     * HardwareParams::validate() checks these knobs' ranges.
     *
     * @param impl two-qubit pulse modulation scheme
     * @param one_qubit_us duration of a single-qubit rotation
     * @param measure_us duration of a qubit measurement
     * @param floor_us minimum physical two-qubit gate duration
     */
    explicit GateTimeModel(GateImpl impl, TimeUs one_qubit_us,
                           TimeUs measure_us, TimeUs floor_us)
        : impl_(impl), oneQubitUs_(one_qubit_us), measureUs_(measure_us),
          floorUs_(floor_us) {}

    /**
     * Duration of one MS gate.
     *
     * @param separation positional distance between the ions (>= 1)
     * @param chain_length number of ions in the chain (>= 2)
     */
    TimeUs twoQubit(int separation, int chain_length) const;

    /** Duration of a single-qubit gate. */
    TimeUs oneQubit() const { return oneQubitUs_; }

    /** Duration of a measurement. */
    TimeUs measure() const { return measureUs_; }

    /** The modeled implementation. */
    GateImpl impl() const { return impl_; }

  private:
    GateImpl impl_;
    TimeUs oneQubitUs_;
    TimeUs measureUs_;
    TimeUs floorUs_;
};

} // namespace qccd

#endif // QCCD_MODELS_GATE_TIME_HPP
