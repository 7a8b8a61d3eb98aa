/**
 * @file
 * Memoized physical-model evaluations for the scheduling hot loop.
 *
 * The per-point simulator evaluates the same model expressions millions
 * of times per sweep: MS gate durations over a small integer domain
 * (separation x chain length, both bounded by the trap capacity), the
 * laser-instability factor A(N) = kappa*N/ln(N) (a transcendental per
 * MS gate), and log-fidelities of the constant-error op kinds (one per
 * primitive in SimResult's log-domain fidelity product). ModelTables
 * evaluates each expression once per HardwareParams over its discrete
 * domain and serves lookups after that.
 *
 * Exactness contract: every table stores the exact double the
 * underlying model produces today, so a toolflow run through the tables
 * is bit-identical to one that calls the models directly (enforced by
 * tests/test_model_tables.cpp). Only the MS-gate fidelity keeps a
 * per-op std::log, because nbar is continuous.
 *
 * Tables are immutable after construction; shared() hands out one
 * instance per distinct parameterization from a mutex-guarded,
 * bounded process-wide cache, so concurrent SweepEngine workers share
 * tables read-only.
 */

#ifndef QCCD_MODELS_MODEL_TABLES_HPP
#define QCCD_MODELS_MODEL_TABLES_HPP

#include <memory>
#include <vector>

#include "models/params.hpp"

namespace qccd
{

/** Read-only memo of the physical models over their discrete domains. */
class ModelTables
{
  public:
    /**
     * @param hw hardware parameterization to memoize
     * @param max_chain largest chain length to table (the device's max
     *        trap capacity); longer chains fall back to the models
     */
    ModelTables(const HardwareParams &hw, int max_chain);

    /** Largest chain length covered by the tables. */
    int maxChain() const { return maxChain_; }

    /** Memoized GateTimeModel::twoQubit(separation, chain_length). */
    TimeUs twoQubit(int separation, int chain_length) const
    {
        if (chain_length <= maxChain_) [[likely]]
            return twoQubitUs_[static_cast<size_t>(chain_length) *
                                   maxChain_ + separation];
        return gateTime_.twoQubit(separation, chain_length);
    }

    /** Memoized FidelityModel::scaleFactorA(n). */
    double scaleFactorA(int n) const
    {
        if (n <= maxChain_) [[likely]]
            return scaleA_[n];
        return fidelity_.scaleFactorA(n);
    }

    /** MS-gate error terms with the memoized scale factor. */
    GateErrorBreakdown msError(TimeUs tau_us, int chain_length,
                               Quanta nbar) const
    {
        return fidelity_.twoQubitErrorWithScale(
            tau_us, scaleFactorA(chain_length), nbar);
    }

    /**
     * log(max(f, kMinFidelity)) of the constant-fidelity op kinds,
     * matching SimResult::noteOp's per-op computation bit for bit. @{
     */
    double logOneQubitFidelity() const { return logOneQubit_; }
    double logMeasureFidelity() const { return logMeasure_; }
    double logUnitFidelity() const { return logUnit_; }
    /** @} */

    /** The memoized models themselves. @{ */
    const GateTimeModel &gateTime() const { return gateTime_; }
    const FidelityModel &fidelity() const { return fidelity_; }
    const HeatingModel &heating() const { return heating_; }
    /** @} */

    /**
     * Shared instance for @p hw / @p max_chain from the process-wide
     * cache (mutex-guarded; the returned tables are immutable and safe
     * to use concurrently), keyed on the kKnobTables knobs. One sweep's
     * workers all receive the same object for designs that share
     * model parameters.
     */
    static std::shared_ptr<const ModelTables>
    shared(const HardwareParams &hw, int max_chain);

    /** shared() starts over past this many entries (about 10 KB each
     *  at capacity 34); the most a committed spec reaches is 48. */
    static constexpr size_t kSharedCapacity = 256;

  private:
    GateTimeModel gateTime_;
    FidelityModel fidelity_;
    HeatingModel heating_;
    int maxChain_;

    /** twoQubit(d, n) at [n * maxChain_ + d]; 0 where d/n invalid. */
    std::vector<TimeUs> twoQubitUs_;
    std::vector<double> scaleA_; ///< scaleFactorA(n) at [n]

    double logOneQubit_;
    double logMeasure_;
    double logUnit_;
};

} // namespace qccd

#endif // QCCD_MODELS_MODEL_TABLES_HPP
