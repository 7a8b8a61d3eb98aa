/**
 * @file
 * The result store's schema-1 circuit digest, as a gate sink.
 *
 * A circuit digest folds i64(numQubits), then i64(op), i64(q0),
 * i64(q1) and f64(param) for every gate. The sink takes the gates one
 * at a time, so one fold serves both a lowered circuit's gate list
 * (ResultStore::circuitDigest) and decomposeInto()'s gate stream from
 * the source circuit (ResultStore::loweredCircuitDigest): the digest of
 * decomposeToNative(source) without building the lowered circuit.
 *
 * The fields whose values recur fold through FixedField tables
 * (common/hash.hpp): every op code, the absent operand, and the three
 * angles the decomposition emits (±π/2, π/4). With 0, those angles are
 * 78% (qft) to 100% of the builtin apps' native-gate angles. A gate so
 * folds in about half the dependent multiplies of the typed calls, to
 * the same bits.
 */

#ifndef QCCD_CORE_CIRCUIT_DIGEST_HPP
#define QCCD_CORE_CIRCUIT_DIGEST_HPP

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "circuit/decompose.hpp"
#include "common/hash.hpp"

namespace qccd
{

namespace digest_detail
{

/** Number of Op codes (Barrier is the last). */
inline constexpr size_t kOpCount = static_cast<size_t>(Op::Barrier) + 1;

/** kOpFields[op] is the field i64(op) folds. */
inline constexpr std::array<hash_detail::FixedField, kOpCount> kOpFields =
    [] {
        std::array<hash_detail::FixedField, kOpCount> fields{};
        for (size_t op = 0; op < kOpCount; ++op)
            fields[op] = hash_detail::fixedI64(static_cast<int64_t>(op));
        return fields;
    }();

/** The angles folded through tables, and their f64 fields. @{ */
inline constexpr std::array<double, 3> kTabledAngles = {
    kHalfPi, -kHalfPi, kQuarterPi};

inline constexpr std::array<hash_detail::FixedField, 3> kAngleFields = {
    hash_detail::fixedF64(kTabledAngles[0]),
    hash_detail::fixedF64(kTabledAngles[1]),
    hash_detail::fixedF64(kTabledAngles[2])};
/** @} */

} // namespace digest_detail

/** Folds a circuit's gates, fed in order, into its schema-1 digest. */
class CircuitDigestSink
{
  public:
    explicit CircuitDigestSink(int num_qubits) { hash_.i64(num_qubits); }

    void
    add(const Gate &gate)
    {
        hash_.fixed(digest_detail::kOpFields[static_cast<size_t>(gate.op)]);
        hash_.i64(gate.q0);
        hash_.i64(gate.q1);
        const uint64_t bits = std::bit_cast<uint64_t>(gate.param);
        for (size_t i = 0; i < digest_detail::kTabledAngles.size(); ++i) {
            if (bits == std::bit_cast<uint64_t>(
                            digest_detail::kTabledAngles[i])) {
                hash_.fixed(digest_detail::kAngleFields[i]);
                return;
            }
        }
        hash_.f64(gate.param);
    }

    Digest128 digest() const { return hash_.digest(); }

  private:
    StableHash hash_;
};

} // namespace qccd

#endif // QCCD_CORE_CIRCUIT_DIGEST_HPP
