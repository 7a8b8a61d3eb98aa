#include "sim/metrics.hpp"

#include <algorithm>
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

void
SimResult::noteOp(const PrimOp &op)
{
    const double log_fid =
        std::log(std::max(op.fidelity, kMinFidelity));
    if (op.kind == PrimKind::GateMS)
        noteMsOp(op.end(), op.duration, op.forCommunication,
                 op.errBackground, op.errMotional, op.fidelity, log_fid);
    else
        noteSimpleOp(op.kind, op.end(), op.duration, op.forCommunication,
                     op.fidelity, log_fid);
}

} // namespace qccd
