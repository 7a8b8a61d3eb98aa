/**
 * @file
 * Aggregated hardware parameter set for one candidate QCCD design.
 *
 * HardwareParams bundles the four physical models (gate time, shuttle
 * time, heating, fidelity) together with the microarchitectural choices
 * the paper sweeps (two-qubit gate implementation, chain reordering
 * method) and compiler-visible knobs (buffer slots per trap, optional
 * sympathetic recooling extension).
 */

#ifndef QCCD_MODELS_PARAMS_HPP
#define QCCD_MODELS_PARAMS_HPP

#include <array>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "models/fidelity.hpp"
#include "models/gate_time.hpp"
#include "models/heating.hpp"
#include "models/shuttle_time.hpp"

namespace qccd
{

/** Chain reordering microarchitecture (paper Section IV-C). */
enum class ReorderMethod
{
    GS, ///< gate-based swapping: one SWAP = 3 MS gates
    IS  ///< physical ion swapping: hop-by-hop split/rotate/merge
};

/** Short name of a reordering method ("GS" / "IS"). */
std::string reorderMethodName(ReorderMethod method);

/** Parse a reordering method name; throws ConfigError on bad input. */
ReorderMethod reorderMethodFromName(const std::string &name);

/** Complete physical + microarchitectural parameterization. */
struct HardwareParams
{
    GateImpl gateImpl = GateImpl::FM;
    ReorderMethod reorder = ReorderMethod::GS;

    TimeUs oneQubitUs = 5.0;
    TimeUs measureUs = 150.0;
    TimeUs twoQubitFloorUs = 10.0;

    ShuttleTimeModel shuttle;

    Quanta heatingK1 = 0.1;
    Quanta heatingK2 = 0.01;

    double gammaPerS = 1.0;
    double kappa = 5e-6;
    double oneQubitError = 3e-5;
    double measureError = 1e-3;

    /** Trap slots left empty for incoming shuttles (paper Section VI). */
    int bufferSlots = 2;

    /**
     * Optional extension (off by default, matching the paper): after each
     * merge the chain is sympathetically recooled to this fraction of its
     * energy. 1.0 disables recooling.
     */
    double recoolFactor = 1.0;

    /** Instantiate the gate-duration model from these parameters. */
    GateTimeModel gateTimeModel() const;

    /** Instantiate the heating model from these parameters. */
    HeatingModel heatingModel() const;

    /** Instantiate the fidelity model from these parameters. */
    FidelityModel fidelityModel() const;

    /** Check every knob against its kHardwareKnobs range; throws
     *  ConfigError naming the first bad one in table order. */
    void validate() const;
};

/** The keys a knob enters besides the store key, which every knob
 *  enters (HardwareKnob::keys flags). */
enum KnobKeys : unsigned
{
    kKnobContext = 1,   ///< ToolflowContext: Scheduler::pathCostFrom reads it
    kKnobPlacement = 2, ///< placement stage: mapQubits reads it
    kKnobSchedule = 4,  ///< schedule stage: scheduling itself reads it
    kKnobTables = 8,    ///< ModelTables: a memoized model reads it
};

/** The schedule key's knobs: every knob the scheduler reads. The
 *  others are model-only, and a model-log replay re-evaluates them. */
inline constexpr unsigned kScheduleKeyKnobs =
    kKnobContext | kKnobPlacement | kKnobSchedule;

/** Integer knobs (the enums, buffer_slots) fold into the store key as
 *  i64 and take integral values only; real knobs fold as f64. */
enum class KnobType { Integer, Real };

/** The values a knob accepts: Probability is [0, 1), Fraction is
 *  (0, 1]. Any is for gate and reorder, whose axes parse names. */
enum class KnobRange { Any, Positive, NonNegative, Probability, Fraction };

/** One row of the knob table: a field of HardwareParams. */
struct HardwareKnob
{
    /** Key under a spec's "params"; nullptr for gate and reorder,
     *  which only their own axes set. */
    const char *name;
    KnobType type;
    KnobRange range;
    unsigned keys;                                 ///< KnobKeys flags
    double (*get)(const HardwareParams &hw);       ///< exact for integers
    void (*set)(HardwareParams &hw, double value); ///< after check()

    /** @throws ConfigError for an integer knob unless @p value is
     *          integral and at most INT_MAX in magnitude */
    void check(double value) const;

    /** @throws ConfigError naming the key unless @p value lies in
     *          the row's range (NaN lies in none but Any) */
    void checkRange(double value) const;
};

namespace knob_detail
{

/** @p hw's field @p Member, of HardwareParams or of its shuttle model. */
template <auto Member, typename Params>
constexpr auto &
fieldOf(Params &hw)
{
    if constexpr (requires { hw.*Member; })
        return hw.*Member;
    else
        return hw.shuttle.*Member;
}

template <auto Member>
constexpr HardwareKnob
row(const char *name, KnobRange range, unsigned keys)
{
    using T = std::remove_cvref_t<decltype(fieldOf<Member>(
        std::declval<HardwareParams &>()))>;
    return {name,
            std::is_floating_point_v<T> ? KnobType::Real
                                        : KnobType::Integer,
            range,
            keys,
            [](const HardwareParams &hw) {
                return static_cast<double>(fieldOf<Member>(hw));
            },
            [](HardwareParams &hw, double value) {
                fieldOf<Member>(hw) = static_cast<T>(value);
            }};
}

using HP = HardwareParams;
using STM = ShuttleTimeModel;
using enum KnobRange;
inline constexpr unsigned kGateTimes = kKnobSchedule | kKnobTables;

} // namespace knob_detail

/**
 * The knob table: one row per HardwareParams field (13 top-level, six
 * ShuttleTimeModel timings) in store-key order. The "params"
 * overrides and their ranges, HardwareParams::validate(), the stage
 * keys, the ModelTables key and the store key all derive from it.
 */
inline constexpr auto kHardwareKnobs = [] {
    using namespace knob_detail;
    return std::to_array<HardwareKnob>({
        row<&HP::gateImpl>(nullptr, Any, kGateTimes),
        row<&HP::reorder>(nullptr, Any, kKnobSchedule),
        row<&HP::oneQubitUs>("one_qubit_us", Positive, kGateTimes),
        row<&HP::measureUs>("measure_us", Positive, kGateTimes),
        row<&HP::twoQubitFloorUs>("two_qubit_floor_us", Positive,
                                  kGateTimes),
        row<&STM::movePerSegment>("move_per_segment_us", Positive,
                                  kKnobContext),
        row<&STM::split>("split_us", Positive, kKnobContext),
        row<&STM::merge>("merge_us", Positive, kKnobContext),
        row<&STM::yJunction>("y_junction_us", Positive, kKnobContext),
        row<&STM::xJunction>("x_junction_us", Positive, kKnobContext),
        row<&STM::ionSwapRotation>("ion_swap_rotation_us", Positive,
                                   kKnobSchedule),
        row<&HP::heatingK1>("heating_k1", NonNegative, kKnobTables),
        row<&HP::heatingK2>("heating_k2", NonNegative, kKnobTables),
        row<&HP::gammaPerS>("gamma_per_s", NonNegative, kKnobTables),
        row<&HP::kappa>("kappa", NonNegative, kKnobTables),
        row<&HP::oneQubitError>("one_qubit_error", Probability,
                                kKnobTables),
        row<&HP::measureError>("measure_error", Probability, kKnobTables),
        row<&HP::bufferSlots>("buffer_slots", NonNegative, kKnobPlacement),
        row<&HP::recoolFactor>("recool_factor", Fraction, 0),
    });
}();

// Tripwire: a new HardwareParams or ShuttleTimeModel field breaks these
// bindings until it is named here and given a row above.
static_assert([](HardwareParams hw) {
    [[maybe_unused]] auto [g, r, t1, tm, t2, s, k1, k2, ga, ka, e1, em, b,
                           rc] = hw;
    [[maybe_unused]] auto [mv, sp, mg, yj, xj, rot] = hw.shuttle;
    return true;
}({}));

/** Knob values at their table positions (a stage key holds one). */
using KnobValues = std::array<double, kHardwareKnobs.size()>;

/** The values of the knobs entering any of @p keys; 0 elsewhere. */
KnobValues knobValues(const HardwareParams &hw, unsigned keys);

/** The knob @p key names under "params"; for any other key throws
 *  ConfigError listing the known ones. */
const HardwareKnob &hardwareKnob(const std::string &key);

/** Set hardwareKnob(@p key) to @p value once check() accepts it. */
void applyHardwareOverride(HardwareParams &params, const std::string &key,
                           double value);

/** All "params" keys, in table order. */
std::vector<std::string> hardwareOverrideKeys();

} // namespace qccd

#endif // QCCD_MODELS_PARAMS_HPP
