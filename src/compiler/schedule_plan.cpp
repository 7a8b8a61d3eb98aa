#include "compiler/schedule_plan.hpp"

#include "common/error.hpp"
#include "compiler/mapping.hpp"

namespace qccd
{

static_assert(sizeof(SchedulePlan::GateRecord) == 20,
              "the scheduler's hot loop reads one 20-byte record per gate");

namespace
{

/** The record kind of native op @p op (MS, measure or one-qubit). */
SchedulePlan::Kind
nativeKind(Op op)
{
    if (op == Op::MS)
        return SchedulePlan::Kind::MS;
    return op == Op::Measure ? SchedulePlan::Kind::Measure
                             : SchedulePlan::Kind::OneQubit;
}

} // namespace

void
SchedulePlan::build(const Circuit &native)
{
    const size_t n = native.size();

    // Gate indices and the kNoGate sentinel share uint32 cells.
    fatalUnless(n < kNoGate,
                "circuit too large for the scheduler's gate queue");

    // One backward pass fills the records, links each gate to the next
    // gate on each of its operands, and counts per gate the operands
    // that have an earlier gate to retire first. What the pass leaves
    // in front_ is each qubit's first gate. The native-set check rides
    // along; it reports the first foreign gate in program order.
    gates_.resize(n);
    pending_.assign(n, 0);
    front_.assign(native.numQubits(), kNoGate);
    size_t executable = 0;
    size_t foreign = n;
    for (size_t gi = n; gi-- > 0;) {
        const Gate &g = native.gate(gi);
        GateRecord &r = gates_[gi];
        r.succ = {kNoGate, kNoGate};
        if (g.op == Op::Barrier) {
            r.q0 = r.q1 = kInvalidId;
            r.kind = Kind::Barrier;
            continue;
        }
        if (!isNative(g.op)) [[unlikely]] {
            foreign = gi;
            continue;
        }
        r.kind = nativeKind(g.op);
        r.q0 = g.q0;
        r.q1 = r.kind == Kind::MS ? g.q1 : g.q0;
        const int arity = r.kind == Kind::MS ? 2 : 1;
        for (int k = 0; k < arity; ++k) {
            const QubitId q = k == 0 ? r.q0 : r.q1;
            const uint32_t next = front_[q];
            r.succ[k] = next;
            if (next != kNoGate)
                ++pending_[next];
            front_[q] = static_cast<uint32_t>(gi);
        }
        ++executable;
    }
    if (foreign != n) [[unlikely]]
        throw ConfigError(
            "scheduler requires the native gate set; lower with "
            "decomposeToNative() (found " + native.gate(foreign).toString() +
            ")");
    executable_ = executable;
    firstUse_ = qccd::firstUseOrder(native);

    QCCD_CHECKED_ONLY(audit(native);)
}

void
SchedulePlan::audit(const Circuit &native) const
{
    panicUnless(fits(native), "schedule plan shape does not match its "
                              "circuit");
    std::vector<uint32_t> last(front_.size(), kNoGate);
    size_t executable = 0;
    for (size_t gi = 0; gi < native.size(); ++gi) {
        const Gate &g = native.gate(gi);
        const GateRecord &r = gates_[gi];
        if (g.op == Op::Barrier) {
            panicUnless(r.kind == Kind::Barrier &&
                            r.succ[0] == kNoGate && r.succ[1] == kNoGate,
                        "barrier record is linked or mis-kinded");
            continue;
        }
        panicUnless(isNative(g.op) && r.kind == nativeKind(g.op) &&
                        r.q0 == g.q0 &&
                        r.q1 == (r.kind == Kind::MS ? g.q1 : g.q0),
                    "gate record does not match its gate");
        const int arity = r.kind == Kind::MS ? 2 : 1;
        int preds = 0;
        for (int k = 0; k < arity; ++k) {
            const QubitId q = k == 0 ? r.q0 : r.q1;
            if (last[q] == kNoGate) {
                panicUnless(front_[q] == gi,
                            "front does not name a qubit's first gate");
            } else {
                const GateRecord &prev = gates_[last[q]];
                panicUnless(prev.succ[prev.q0 == q ? 0 : 1] == gi,
                            "successor link skips the next gate on its "
                            "qubit");
                ++preds;
            }
            last[q] = static_cast<uint32_t>(gi);
        }
        panicUnless(pending_[gi] == preds,
                    "predecessor count does not match the circuit");
        ++executable;
    }
    for (size_t q = 0; q < last.size(); ++q) {
        if (last[q] == kNoGate) {
            panicUnless(front_[q] == kNoGate,
                        "front names a gate on an idle qubit");
            continue;
        }
        const GateRecord &r = gates_[last[q]];
        panicUnless(r.succ[r.q0 == static_cast<QubitId>(q) ? 0 : 1] ==
                        kNoGate,
                    "successor link runs past a qubit's last gate");
    }
    panicUnless(executable == executable_,
                "executable gate count does not match the circuit");
    panicUnless(firstUse_ == qccd::firstUseOrder(native),
                "first-use order does not match the circuit");
}

} // namespace qccd
