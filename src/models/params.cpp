#include "models/params.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace qccd
{

std::string
reorderMethodName(ReorderMethod method)
{
    switch (method) {
      case ReorderMethod::GS: return "GS";
      case ReorderMethod::IS: return "IS";
    }
    throw InternalError("unknown ReorderMethod");
}

ReorderMethod
reorderMethodFromName(const std::string &name)
{
    if (name == "GS") return ReorderMethod::GS;
    if (name == "IS") return ReorderMethod::IS;
    throw ConfigError("unknown reorder method '" + name +
                      "' (expected GS or IS)");
}

GateTimeModel
HardwareParams::gateTimeModel() const
{
    return GateTimeModel(gateImpl, oneQubitUs, measureUs, twoQubitFloorUs);
}

HeatingModel
HardwareParams::heatingModel() const
{
    return HeatingModel(heatingK1, heatingK2);
}

FidelityModel
HardwareParams::fidelityModel() const
{
    return FidelityModel(gammaPerS, kappa, oneQubitError, measureError);
}

void
HardwareKnob::check(double value) const
{
    // Range-check before narrowing: converting an out-of-range or NaN
    // double to int is undefined behaviour.
    if (type == KnobType::Integer &&
        (!(std::abs(value) <= std::numeric_limits<int>::max()) ||
         std::trunc(value) != value))
        throw ConfigError("parameter '" + std::string(name) +
                          "' takes an integer value");
}

KnobValues
knobValues(const HardwareParams &hw, unsigned keys)
{
    KnobValues values{};
    for (size_t i = 0; i < kHardwareKnobs.size(); ++i)
        if ((kHardwareKnobs[i].keys & keys) != 0)
            values[i] = kHardwareKnobs[i].get(hw);
    return values;
}

const HardwareKnob &
hardwareKnob(const std::string &key)
{
    for (const HardwareKnob &row : kHardwareKnobs)
        if (row.name != nullptr && key == row.name)
            return row;
    std::string known;
    for (const std::string &k : hardwareOverrideKeys())
        known += (known.empty() ? "" : ", ") + k;
    throw ConfigError("unknown hardware parameter '" + key +
                      "' (known: " + known + ")");
}

void
applyHardwareOverride(HardwareParams &params, const std::string &key,
                      double value)
{
    const HardwareKnob &row = hardwareKnob(key);
    row.check(value);
    row.set(params, value);
}

std::vector<std::string>
hardwareOverrideKeys()
{
    std::vector<std::string> keys;
    for (const HardwareKnob &row : kHardwareKnobs)
        if (row.name != nullptr)
            keys.push_back(row.name);
    return keys;
}

void
HardwareParams::validate() const
{
    shuttle.validate();
    fatalUnless(bufferSlots >= 0, "buffer slots must be non-negative");
    fatalUnless(recoolFactor > 0 && recoolFactor <= 1.0,
                "recool factor must be in (0, 1]");
    // The model constructors validate their own parameters.
    gateTimeModel();
    heatingModel();
    fidelityModel();
}

} // namespace qccd
