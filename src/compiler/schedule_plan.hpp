/**
 * @file
 * A native circuit compiled once for the scheduler.
 *
 * Everything the list scheduler derives from the circuit alone depends
 * on no device or hardware knob: the per-gate successor links, the
 * initial predecessor counts and per-qubit fronts, and the first-use
 * order the initial mapping packs by. A sweep schedules one lowered
 * circuit on many designs, so the plan is built once per circuit and
 * every schedule of that circuit runs off it. A run copies only the
 * two arrays it mutates (the counts and the fronts).
 */

#ifndef QCCD_COMPILER_SCHEDULE_PLAN_HPP
#define QCCD_COMPILER_SCHEDULE_PLAN_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"

namespace qccd
{

/** Successor-link and front sentinel: no further gate on the qubit. */
inline constexpr uint32_t kNoGate = UINT32_MAX;

/** Per-circuit scheduling data; schedules only read it. */
class SchedulePlan
{
  public:
    /** What the scheduler does with a gate. */
    enum class Kind : uint8_t
    {
        OneQubit,
        Measure,
        MS,
        Barrier ///< never scheduled: no link, count or front names it
    };

    /** One gate, laid out for the pop and release path (20 bytes). */
    struct GateRecord
    {
        /** Next gate on each operand; kNoGate past the qubit's last. */
        std::array<uint32_t, 2> succ;
        QubitId q0;
        /** Second operand; repeats q0 on one-operand gates, so the
         *  readiness tests need no arity branch. */
        QubitId q1;
        Kind kind;
    };

    SchedulePlan() = default;

    /** The plan of @p native; see build(). */
    explicit SchedulePlan(const Circuit &native) { build(native); }

    /**
     * Rebuild for @p native in place, reusing the storage: one
     * backward pass links each gate to the next gate on each operand
     * and counts its unretired predecessors, then the first-use order
     * is taken. Checked builds audit the result (see audit()).
     *
     * @throws ConfigError if @p native holds a gate outside the
     *         native set, naming the first one. A plan left by a throw
     *         is unusable until the next successful build.
     */
    void build(const Circuit &native);

    /** Circuit shape the plan was built from. @{ */
    size_t size() const { return gates_.size(); }
    int numQubits() const { return static_cast<int>(front_.size()); }
    /** @} */

    /** True when the plan was built from a circuit of @p c's shape. */
    bool fits(const Circuit &c) const
    {
        return size() == c.size() && numQubits() == c.numQubits();
    }

    /** Gates the scheduler executes (every non-barrier gate). */
    size_t executableGates() const { return executable_; }

    const GateRecord &gate(size_t gi) const { return gates_[gi]; }

    /** Per gate: predecessors that retire before it is ready. */
    const std::vector<uint8_t> &pending() const { return pending_; }

    /** Per qubit: its first gate (kNoGate on an idle qubit). */
    const std::vector<uint32_t> &front() const { return front_; }

    /** Program qubits by first use (see qccd::firstUseOrder). */
    const std::vector<QubitId> &firstUseOrder() const
    {
        return firstUse_;
    }

    /**
     * Re-derive the plan from @p native in a forward pass and panic
     * (InternalError) on any difference: each link names the next
     * later gate on its qubit, each front the qubit's first gate, the
     * counts match a recount, and the records, the executable count
     * and the first-use order match the circuit.
     */
    void audit(const Circuit &native) const;

  private:
    std::vector<GateRecord> gates_;
    std::vector<uint8_t> pending_;
    std::vector<uint32_t> front_;
    std::vector<QubitId> firstUse_;
    size_t executable_ = 0;
};

} // namespace qccd

#endif // QCCD_COMPILER_SCHEDULE_PLAN_HPP
