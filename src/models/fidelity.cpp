#include "models/fidelity.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace qccd
{

double
GateErrorBreakdown::total() const
{
    return std::clamp(background + motional, 0.0, 1.0);
}

double
FidelityModel::scaleFactorA(int n) const
{
    panicUnless(n >= 2, "scale factor A needs chain length >= 2");
    return kappa_ * n / std::log(static_cast<double>(n));
}

GateErrorBreakdown
FidelityModel::twoQubitError(TimeUs tau_us, int chain_length,
                             Quanta nbar) const
{
    return twoQubitErrorWithScale(tau_us, scaleFactorA(chain_length),
                                  nbar);
}

GateErrorBreakdown
FidelityModel::twoQubitErrorWithScale(TimeUs tau_us, double scale_a,
                                      Quanta nbar) const
{
    panicUnless(tau_us >= 0, "gate duration cannot be negative");
    panicUnless(nbar >= 0, "motional energy cannot be negative");
    GateErrorBreakdown err;
    err.background = gammaPerS_ * (tau_us / kSecondUs);
    err.motional = scale_a * (2.0 * nbar + 1.0);
    return err;
}

double
FidelityModel::twoQubitFidelity(TimeUs tau_us, int chain_length,
                                Quanta nbar) const
{
    return twoQubitError(tau_us, chain_length, nbar).fidelity();
}

} // namespace qccd
