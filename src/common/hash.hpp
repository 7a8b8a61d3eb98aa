/**
 * @file
 * Stable content hashing for durable artifacts.
 *
 * The result store (core/result_store.hpp) keys cached rows on a hash
 * that must be identical across processes, runs, compilers and
 * platforms — std::hash guarantees none of that, so this header
 * provides an explicit FNV-1a construction with a pinned byte order:
 * every integer is folded little-endian, every double as its IEEE-754
 * bit pattern, every string length-prefixed (so "ab","c" never
 * collides with "a","bc"). Two independently seeded 64-bit lanes give
 * a 128-bit digest; at the store's scale (~10^6 entries) accidental
 * collision is negligible, and `--cache-verify` exists to audit even
 * that.
 *
 * The typed fields fold the same bytes in fewer dependent multiplies,
 * using two identities of the FNV-1a step s -> (s ^ b) * P:
 *
 *  - Zero runs. (s ^ 0) * P = s * P, so k zero bytes fold as one
 *    multiply by P^k. A field folds its tag, then only the value's
 *    significant low bytes, then P^k for its k zero high bytes.
 *  - Fixed strings. s ^ b changes only s's low byte, and the low byte
 *    of s * P depends only on s's low byte, so folding a fixed n-byte
 *    string from s gives s * P^n + C[s & 0xFF], with C depending only
 *    on the string. A field whose value is known in advance — i64(-1)
 *    (kInvalidId, the absent second operand of most gates), an op
 *    code, a fixed rotation angle — folds its 9-byte encoding that
 *    way through StableHash::fixed(); its FixedField table C is
 *    computed at compile time by folding that encoding byte by byte.
 *
 * Both are exact, so the digests equal the byte-serial ones bit for
 * bit (tests/test_hash.cpp checks them against an independent
 * reference).
 */

#ifndef QCCD_COMMON_HASH_HPP
#define QCCD_COMMON_HASH_HPP

#include <array>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

namespace qccd
{

/** FNV-1a 64-bit offset basis / prime (public domain constants). @{ */
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;
/** @} */

/**
 * One-shot FNV-1a over @p len bytes starting from @p seed. Single-byte
 * changes always change the result (xor then odd-prime multiply are
 * both bijective), which is the property the store's per-record
 * checksum needs.
 */
uint64_t fnv1a64(const void *data, size_t len,
                 uint64_t seed = kFnvOffsetBasis);

/** A 128-bit content digest (two independent 64-bit lanes). */
struct Digest128
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    friend auto operator<=>(const Digest128 &, const Digest128 &) =
        default;
    friend bool operator==(const Digest128 &, const Digest128 &) =
        default;

    /** 32 lowercase hex digits (hi then lo), for diagnostics. */
    std::string hex() const;
};

namespace hash_detail
{

/** One FNV-1a step: xor @p byte into @p state, multiply by the prime. */
constexpr uint64_t
fnvFold(uint64_t state, unsigned char byte)
{
    return (state ^ byte) * kFnvPrime;
}

/** Field tags; see StableHash. Values are part of the on-disk schema
 *  (they enter every stored key) — never renumber, only append. */
enum : unsigned char
{
    kTagU32 = 1,
    kTagU64 = 2,
    kTagI64 = 3,
    kTagF64 = 4,
    kTagStr = 5,
};

/** P^0 .. P^9: the fold of 0..9 zero bytes. */
inline constexpr std::array<uint64_t, 10> kPrimePowers = [] {
    std::array<uint64_t, 10> powers{};
    uint64_t power = 1;
    for (uint64_t &p : powers) {
        p = power;
        power *= kFnvPrime;
    }
    return powers;
}();

/** A fixed field's C: C[low] is the byte-serial fold of the field's
 *  9-byte encoding from state `low`, minus low * P^9. */
using FixedField = std::array<uint64_t, 256>;

/** The FixedField of the encoding @p tag, then the 8 little-endian
 *  bytes of @p payload. */
constexpr FixedField
fixedField(unsigned char tag, uint64_t payload)
{
    FixedField table{};
    for (uint64_t low = 0; low < table.size(); ++low) {
        uint64_t state = fnvFold(low, tag);
        for (int i = 0; i < 8; ++i)
            state = fnvFold(state,
                            static_cast<unsigned char>(payload >> (8 * i)));
        table[low] = state - low * kPrimePowers[9];
    }
    return table;
}

/** The field i64(@p value) folds. */
constexpr FixedField
fixedI64(int64_t value)
{
    return fixedField(kTagI64, static_cast<uint64_t>(value));
}

/** The field f64(@p value) folds. */
constexpr FixedField
fixedF64(double value)
{
    return fixedField(kTagF64, std::bit_cast<uint64_t>(value));
}

/** i64(-1): the absent operand. */
inline constexpr FixedField kAbsentField = fixedI64(-1);

} // namespace hash_detail

/**
 * Streaming 128-bit hasher with a pinned serialization, so equal
 * logical inputs produce equal digests on every platform.
 *
 * Feed typed values, never raw structs: padding bytes and field order
 * would silently enter the key. The type-tagged helpers below each
 * fold a one-byte tag before the value, so adjacent fields of
 * different types cannot alias each other's encodings.
 */
class StableHash
{
  public:
    StableHash() = default;

    /** Raw bytes, no tag (building block for the typed helpers). */
    void bytes(const void *data, size_t len);

    /** Typed fields (tag byte + little-endian payload). @{ */
    void u32(uint32_t value) { word(hash_detail::kTagU32, value, 4); }
    void u64(uint64_t value) { word(hash_detail::kTagU64, value, 8); }

    void
    i64(int64_t value)
    {
        if (value == -1) {
            fixed(hash_detail::kAbsentField);
            return;
        }
        word(hash_detail::kTagI64, static_cast<uint64_t>(value), 8);
    }

    /** Doubles fold as IEEE-754 bit patterns: bit-equal in, bit-equal
     *  key out, matching the byte-identical goldens contract. */
    void
    f64(double value)
    {
        word(hash_detail::kTagF64, std::bit_cast<uint64_t>(value), 8);
    }

    /** Length-prefixed, so field boundaries are unambiguous. */
    void str(const std::string &value);
    /** @} */

    /** Fold the field @p field was built from (hash_detail::fixedI64
     *  or fixedF64 of a value): the same state as the typed call, in
     *  one multiply-add per lane. */
    void
    fixed(const hash_detail::FixedField &field)
    {
        hi_ = hi_ * hash_detail::kPrimePowers[9] + field[hi_ & 0xFF];
        lo_ = lo_ * hash_detail::kPrimePowers[9] + field[lo_ & 0xFF];
    }

    Digest128 digest() const { return {hi_, lo_}; }

  private:
    /** Fold @p tag, then the @p width little-endian bytes of @p value:
     *  its significant low bytes one by one, its zero high bytes as
     *  one multiply. */
    void
    word(unsigned char tag, uint64_t value, int width)
    {
        hi_ = hash_detail::fnvFold(hi_, tag);
        lo_ = hash_detail::fnvFold(lo_, tag);
        const int significant = (std::bit_width(value) + 7) / 8;
        for (int i = 0; i < significant; ++i, value >>= 8) {
            const auto byte = static_cast<unsigned char>(value);
            hi_ = hash_detail::fnvFold(hi_, byte);
            lo_ = hash_detail::fnvFold(lo_, byte);
        }
        const uint64_t zeros =
            hash_detail::kPrimePowers[width - significant];
        hi_ *= zeros;
        lo_ *= zeros;
    }

    // Distinct seeds decorrelate the lanes: FNV-1a folds the seed
    // non-linearly, so a collision in one lane does not imply one in
    // the other.
    uint64_t hi_ = kFnvOffsetBasis;
    uint64_t lo_ = kFnvOffsetBasis ^ 0x9e3779b97f4a7c15ULL;
};

} // namespace qccd

#endif // QCCD_COMMON_HASH_HPP
