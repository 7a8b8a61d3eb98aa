/**
 * @file
 * Gate fidelity model (paper Section VII-C, Equation 1).
 *
 * The two-qubit MS gate fidelity is
 *
 *     F = 1 - Gamma*tau - A*(2*nbar + 1),      A = kappa * N / ln(N)
 *
 * where Gamma is the trap background heating error rate, tau the gate
 * duration, nbar the chain's motional energy in quanta, and N the chain
 * length. The second term models thermal laser-beam instabilities, which
 * is why it grows with chain length and chain temperature.
 *
 * Gamma and kappa are not stated numerically in the paper; their
 * defaults in HardwareParams (models/params.hpp) are calibrated so the
 * published result shapes reproduce (see DESIGN.md Section 3 and
 * EXPERIMENTS.md).
 */

#ifndef QCCD_MODELS_FIDELITY_HPP
#define QCCD_MODELS_FIDELITY_HPP

#include "common/types.hpp"

namespace qccd
{

/** Additive error decomposition of a single two-qubit gate. */
struct GateErrorBreakdown
{
    double background = 0; ///< Gamma * tau term
    double motional = 0;   ///< A * (2*nbar + 1) term

    /** Total gate error (sum of the terms, clamped to [0, 1]). */
    double total() const;

    /** Gate fidelity 1 - total(). */
    double fidelity() const { return 1.0 - total(); }
};

/** Evaluates Equation 1 plus constant 1q/measurement error rates. */
class FidelityModel
{
  public:
    /**
     * HardwareParams::validate() checks these knobs' ranges.
     *
     * @param gamma_per_s background heating error rate, per second
     * @param kappa laser-instability prefactor of A = kappa*N/ln(N)
     * @param one_qubit_error constant single-qubit gate error
     * @param measure_error constant measurement error
     */
    explicit FidelityModel(double gamma_per_s, double kappa,
                           double one_qubit_error, double measure_error)
        : gammaPerS_(gamma_per_s), kappa_(kappa),
          oneQubitError_(one_qubit_error), measureError_(measure_error) {}

    /**
     * Error terms of one MS gate.
     *
     * @param tau_us gate duration in microseconds
     * @param chain_length number of ions in the chain (>= 2)
     * @param nbar chain motional energy in quanta
     */
    GateErrorBreakdown twoQubitError(TimeUs tau_us, int chain_length,
                                     Quanta nbar) const;

    /**
     * Like twoQubitError but with the laser-instability factor A given
     * directly instead of recomputed from the chain length. Passing
     * scaleFactorA(chain_length) reproduces twoQubitError bit-for-bit;
     * ModelTables uses this to substitute its memoized A.
     */
    GateErrorBreakdown twoQubitErrorWithScale(TimeUs tau_us,
                                              double scale_a,
                                              Quanta nbar) const;

    /** Fidelity of one MS gate (convenience over twoQubitError). */
    double twoQubitFidelity(TimeUs tau_us, int chain_length,
                            Quanta nbar) const;

    /** The laser-instability scale factor A for a chain of @p n ions. */
    double scaleFactorA(int n) const;

    double oneQubitFidelity() const { return 1.0 - oneQubitError_; }
    double measureFidelity() const { return 1.0 - measureError_; }

    double gammaPerSecond() const { return gammaPerS_; }
    double kappa() const { return kappa_; }

  private:
    double gammaPerS_;
    double kappa_;
    double oneQubitError_;
    double measureError_;
};

} // namespace qccd

#endif // QCCD_MODELS_FIDELITY_HPP
