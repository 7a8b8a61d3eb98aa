#include "models/gate_time.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qccd
{

std::string
gateImplName(GateImpl impl)
{
    switch (impl) {
      case GateImpl::AM1: return "AM1";
      case GateImpl::AM2: return "AM2";
      case GateImpl::PM: return "PM";
      case GateImpl::FM: return "FM";
    }
    throw InternalError("unknown GateImpl");
}

GateImpl
gateImplFromName(const std::string &name)
{
    if (name == "AM1") return GateImpl::AM1;
    if (name == "AM2") return GateImpl::AM2;
    if (name == "PM") return GateImpl::PM;
    if (name == "FM") return GateImpl::FM;
    throw ConfigError("unknown gate implementation '" + name +
                      "' (expected AM1, AM2, PM or FM)");
}

TimeUs
GateTimeModel::twoQubit(int separation, int chain_length) const
{
    panicUnless(separation >= 1, "two-qubit gate needs separation >= 1");
    panicUnless(chain_length >= 2, "two-qubit gate needs chain length >= 2");
    panicUnless(separation < chain_length,
                "ion separation cannot exceed chain length - 1");

    const double d = separation;
    const double n = chain_length;
    TimeUs tau = 0;
    switch (impl_) {
      case GateImpl::AM1:
        tau = 100.0 * d - 22.0;
        break;
      case GateImpl::AM2:
        tau = 38.0 * d + 10.0;
        break;
      case GateImpl::PM:
        tau = 5.0 * d + 160.0;
        break;
      case GateImpl::FM:
        tau = std::max(13.33 * n - 54.0, 100.0);
        break;
    }
    return std::max(tau, floorUs_);
}

} // namespace qccd
