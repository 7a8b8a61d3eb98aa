#include "sim/metrics.hpp"

#include <cmath>

namespace qccd
{

double
SimResult::fidelity() const
{
    return std::exp(logFidelity);
}

double
SimResult::meanBackgroundError() const
{
    const long ms = counts.totalMs();
    return ms == 0 ? 0.0 : sumBackgroundError / ms;
}

double
SimResult::meanMotionalError() const
{
    const long ms = counts.totalMs();
    return ms == 0 ? 0.0 : sumMotionalError / ms;
}

} // namespace qccd
