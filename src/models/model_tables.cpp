#include "models/model_tables.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "sim/metrics.hpp"

namespace qccd
{

namespace
{

/** log(max(f, kMinFidelity)), exactly as ModelFold::ms computes. */
double
clampedLog(double fidelity)
{
    return std::log(std::max(fidelity, kMinFidelity));
}

} // namespace

ModelTables::ModelTables(const HardwareParams &hw, int max_chain)
    : gateTime_(hw.gateTimeModel()), fidelity_(hw.fidelityModel()),
      heating_(hw.heatingModel()), maxChain_(std::max(max_chain, 1)),
      twoQubitUs_(static_cast<size_t>(maxChain_ + 1) * maxChain_, 0.0),
      scaleA_(maxChain_ + 1, 0.0),
      logOneQubit_(clampedLog(fidelity_.oneQubitFidelity())),
      logMeasure_(clampedLog(fidelity_.measureFidelity()))
{
    for (int n = 2; n <= maxChain_; ++n) {
        scaleA_[n] = fidelity_.scaleFactorA(n);
        for (int d = 1; d < n; ++d)
            twoQubitUs_[static_cast<size_t>(n) * maxChain_ + d] =
                gateTime_.twoQubit(d, n);
    }
}

std::shared_ptr<const ModelTables>
ModelTables::shared(const HardwareParams &hw, int max_chain)
{
    using Key = std::pair<KnobValues, int>;
    const Key key{knobValues(hw, kKnobTables), max_chain};

    static std::mutex mutex;
    static std::map<Key, std::shared_ptr<const ModelTables>> cache;

    const std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(key);
    if (it == cache.end()) {
        if (cache.size() == kSharedCapacity)
            cache.clear(); // tables already handed out live on
        it = cache
                 .emplace(key,
                          std::make_shared<const ModelTables>(hw,
                                                              max_chain))
                 .first;
    }
    return it->second;
}

} // namespace qccd
