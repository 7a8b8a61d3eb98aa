/**
 * @file
 * Differential tests for StableHash (common/hash.hpp): its typed folds
 * skip work (zero high bytes as one multiply, i64(-1) as one
 * multiply-add), so every fold is checked against a byte-at-a-time
 * FNV-1a reference written here from the published definition. The
 * reference shares no code with hash.{hpp,cpp}: its constants, tags
 * and byte order are restated, not included. The fixed-field tables
 * (common/hash.hpp, core/circuit_digest.hpp) and the store's circuit
 * digests, lowered or folded straight from a source circuit, are
 * checked against the same reference.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <numbers>
#include <random>
#include <set>
#include <string>
#include <utility>

#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "circuit/qasm/parser.hpp"
#include "common/hash.hpp"
#include "core/circuit_digest.hpp"
#include "core/result_store.hpp"

namespace qccd
{
namespace
{

/** Two-lane FNV-1a, one byte per step, with the store's field
 *  encoding: a tag byte, then the payload little-endian. */
class ReferenceHash
{
  public:
    void
    byte(uint8_t b)
    {
        hi_ = (hi_ ^ b) * kPrime;
        lo_ = (lo_ ^ b) * kPrime;
    }

    void
    field(uint8_t tag, uint64_t payload, int width)
    {
        byte(tag);
        for (int i = 0; i < width; ++i)
            byte(static_cast<uint8_t>(payload >> (8 * i)));
    }

    void u32(uint32_t v) { field(1, v, 4); }
    void u64(uint64_t v) { field(2, v, 8); }
    void i64(int64_t v) { field(3, static_cast<uint64_t>(v), 8); }

    void
    f64(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        field(4, bits, 8);
    }

    void
    str(const std::string &s)
    {
        field(5, s.size(), 8);
        for (const char c : s)
            byte(static_cast<uint8_t>(c));
    }

    std::pair<uint64_t, uint64_t> lanes() const { return {hi_, lo_}; }
    uint64_t hiLane() const { return hi_; }

    /** One lane's fold of a 9-byte field (tag, 8 payload bytes) from
     *  @p state. */
    static uint64_t
    laneField(uint64_t state, uint8_t tag, uint64_t payload)
    {
        state = (state ^ tag) * kPrime;
        for (int i = 0; i < 8; ++i)
            state = (state ^ static_cast<uint8_t>(payload >> (8 * i))) *
                    kPrime;
        return state;
    }

    static constexpr uint64_t kPrime = 0x100000001b3ULL;

  private:
    uint64_t hi_ = 0xcbf29ce484222325ULL;
    uint64_t lo_ = 0xcbf29ce484222325ULL ^ 0x9e3779b97f4a7c15ULL;
};

std::pair<uint64_t, uint64_t>
lanesOf(const StableHash &hash)
{
    const Digest128 d = hash.digest();
    return {d.hi, d.lo};
}

/** A value of exactly @p bytes significant low bytes (0 means 0). */
uint64_t
withSignificantBytes(std::mt19937_64 &rng, int bytes)
{
    if (bytes == 0)
        return 0;
    const uint64_t low =
        bytes == 8 ? rng()
                   : rng() & ((uint64_t{1} << (8 * (bytes - 1))) - 1);
    const uint64_t top = 1 + rng() % 255;
    return low | (top << (8 * (bytes - 1)));
}

int
significantBytes(uint64_t v)
{
    int n = 0;
    for (; v != 0; v >>= 8)
        ++n;
    return n;
}

TEST(StableHash, FreshDigestIsTheSeeds)
{
    EXPECT_EQ(lanesOf(StableHash{}), ReferenceHash{}.lanes());
}

TEST(StableHash, EdgeIntegersMatchTheReference)
{
    const int64_t ints[] = {-1, 0, 1, 255, 256, -2,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
    const uint64_t words[] = {0, 1, 0xFF, 0x100,
                              std::numeric_limits<uint64_t>::max(),
                              uint64_t{1} << 63};
    const uint32_t halves[] = {0, 1, 0xFF, 0x10000,
                               std::numeric_limits<uint32_t>::max()};
    for (const int64_t v : ints) {
        StableHash fast;
        ReferenceHash ref;
        fast.i64(v);
        ref.i64(v);
        EXPECT_EQ(lanesOf(fast), ref.lanes()) << "i64 " << v;
    }
    for (const uint64_t v : words) {
        StableHash fast;
        ReferenceHash ref;
        fast.u64(v);
        ref.u64(v);
        EXPECT_EQ(lanesOf(fast), ref.lanes()) << "u64 " << v;
    }
    for (const uint32_t v : halves) {
        StableHash fast;
        ReferenceHash ref;
        fast.u32(v);
        ref.u32(v);
        EXPECT_EQ(lanesOf(fast), ref.lanes()) << "u32 " << v;
    }
}

TEST(StableHash, SpecialDoublesMatchTheReference)
{
    using limits = std::numeric_limits<double>;
    const double quiet_payload = [] {
        const uint64_t bits = 0x7ff8000000001234ULL;
        double d = 0;
        std::memcpy(&d, &bits, sizeof d);
        return d;
    }();
    const double negative_nan = [] {
        const uint64_t bits = 0xfff0000000000001ULL;
        double d = 0;
        std::memcpy(&d, &bits, sizeof d);
        return d;
    }();
    const double doubles[] = {0.0,
                              -0.0,
                              limits::denorm_min(),
                              -limits::denorm_min(),
                              limits::min() / 2,
                              limits::infinity(),
                              -limits::infinity(),
                              limits::quiet_NaN(),
                              limits::signaling_NaN(),
                              quiet_payload,
                              negative_nan,
                              0.5,
                              -std::numbers::pi / 2};
    for (const double v : doubles) {
        StableHash fast;
        ReferenceHash ref;
        fast.f64(v);
        ref.f64(v);
        EXPECT_EQ(lanesOf(fast), ref.lanes()) << "f64 " << v;
    }
}

/** The absent-operand fold depends on the lane's low byte: prefix a
 *  varying word so i64(-1) starts from all 256 of them. */
TEST(StableHash, AbsentOperandMatchesFromEveryLowByte)
{
    std::set<uint64_t> lows;
    for (uint64_t prefix = 0; prefix < 4096 && lows.size() < 256;
         ++prefix) {
        StableHash fast;
        ReferenceHash ref;
        fast.u64(prefix);
        ref.u64(prefix);
        lows.insert(ref.hiLane() & 0xFF);
        fast.i64(-1);
        ref.i64(-1);
        ASSERT_EQ(lanesOf(fast), ref.lanes()) << "prefix " << prefix;
    }
    EXPECT_EQ(lows.size(), 256u);
}

TEST(StableHash, SeededTypedSequencesMatchTheReference)
{
    std::mt19937_64 rng(20201117);
    // [type][significant bytes of the folded value], asserted below
    // for the four fixed-width types.
    int seen[5][9] = {};
    for (int seq = 0; seq < 400; ++seq) {
        StableHash fast;
        ReferenceHash ref;
        const int length = 1 + static_cast<int>(rng() % 24);
        for (int f = 0; f < length; ++f) {
            const int type = static_cast<int>(rng() % 5);
            const int width = type == 0 ? 4 : 8;
            const int bytes = static_cast<int>(rng() % (width + 1));
            uint64_t v = withSignificantBytes(rng, bytes);
            switch (type) {
              case 0:
                fast.u32(static_cast<uint32_t>(v));
                ref.u32(static_cast<uint32_t>(v));
                break;
              case 1:
                fast.u64(v);
                ref.u64(v);
                break;
              case 2:
                // Every third i64 is the absent operand.
                if (rng() % 3 == 0)
                    v = static_cast<uint64_t>(int64_t{-1});
                fast.i64(static_cast<int64_t>(v));
                ref.i64(static_cast<int64_t>(v));
                break;
              case 3: {
                double d = 0;
                std::memcpy(&d, &v, sizeof d);
                fast.f64(d);
                ref.f64(d);
                break;
              }
              default: {
                // Strings interleave with the typed fields.
                std::string s(rng() % 12, '\0');
                for (char &c : s)
                    c = static_cast<char>(rng());
                fast.str(s);
                ref.str(s);
                v = s.size();
                break;
              }
            }
            ++seen[type][significantBytes(v)];
        }
        ASSERT_EQ(lanesOf(fast), ref.lanes()) << "sequence " << seq;
    }
    for (int type = 0; type < 4; ++type)
        for (int bytes = 0; bytes <= (type == 0 ? 4 : 8); ++bytes)
            EXPECT_GT(seen[type][bytes], 0)
                << "type " << type << " bytes " << bytes;
}

/** The store's circuit digest of @p native, by the reference fold. */
std::pair<uint64_t, uint64_t>
referenceDigest(const Circuit &native)
{
    ReferenceHash ref;
    ref.i64(native.numQubits());
    for (const Gate &g : native.gates()) {
        ref.i64(static_cast<int64_t>(g.op));
        ref.i64(g.q0);
        ref.i64(g.q1);
        ref.f64(g.param);
    }
    return ref.lanes();
}

std::pair<uint64_t, uint64_t>
lanesOf(const Digest128 &d)
{
    return {d.hi, d.lo};
}

/** Every fold a fixed field replaces: @p table applied to a state
 *  whose low byte is each of 0..255, above random high bytes, must
 *  equal the byte-serial fold of (tag, payload) from that state. */
void
expectFixedField(const hash_detail::FixedField &table, uint8_t tag,
                 uint64_t payload, const std::string &what)
{
    uint64_t prime9 = 1;
    for (int i = 0; i < 9; ++i)
        prime9 *= ReferenceHash::kPrime;
    std::mt19937_64 rng(payload ^ tag);
    for (uint64_t low = 0; low < 256; ++low) {
        for (int trial = 0; trial < 4; ++trial) {
            const uint64_t state = (rng() & ~uint64_t{0xFF}) | low;
            ASSERT_EQ(state * prime9 + table[low],
                      ReferenceHash::laneField(state, tag, payload))
                << what << " low byte " << low;
        }
    }
}

TEST(StableHash, FixedFieldsMatchTheReferenceFromEveryLowByte)
{
    expectFixedField(hash_detail::kAbsentField, 3, ~uint64_t{0},
                     "absent operand");

    // Op codes are declaration order, Barrier last.
    ASSERT_EQ(digest_detail::kOpCount,
              static_cast<size_t>(Op::Barrier) + 1);
    for (size_t op = 0; op < digest_detail::kOpCount; ++op)
        expectFixedField(digest_detail::kOpFields[op], 3, op,
                         "op " + opName(static_cast<Op>(op)));

    // The decomposition's three fixed angles, restated.
    const double angles[] = {std::numbers::pi / 2, -std::numbers::pi / 2,
                             std::numbers::pi / 4};
    ASSERT_EQ(digest_detail::kTabledAngles.size(), std::size(angles));
    for (size_t i = 0; i < std::size(angles); ++i) {
        uint64_t bits = 0;
        std::memcpy(&bits, &angles[i], sizeof bits);
        uint64_t tabled = 0;
        std::memcpy(&tabled, &digest_detail::kTabledAngles[i],
                    sizeof tabled);
        ASSERT_EQ(tabled, bits) << "angle " << i;
        expectFixedField(digest_detail::kAngleFields[i], 4, bits,
                         "angle " + std::to_string(angles[i]));
    }
}

TEST(StableHash, EveryBuiltinNativeDigestMatchesTheReference)
{
    for (const BenchmarkSpec &spec : benchmarkList()) {
        const Circuit source = makeBenchmark(spec.name);
        const Circuit native = decomposeToNative(source);
        EXPECT_EQ(lanesOf(ResultStore::circuitDigest(native)),
                  referenceDigest(native))
            << spec.name;
        EXPECT_EQ(lanesOf(ResultStore::loweredCircuitDigest(source)),
                  referenceDigest(native))
            << spec.name;
    }
}

TEST(StableHash, ExampleQasmLoweredDigestsMatchTheReference)
{
    for (const char *file : {"bell.qasm", "qft8.qasm"}) {
        const Circuit source = qasm::parseFile(
            std::string(QCCD_HASH_TEST_SOURCE_DIR) + "/examples/circuits/" +
            file);
        EXPECT_EQ(lanesOf(ResultStore::loweredCircuitDigest(source)),
                  referenceDigest(decomposeToNative(source)))
            << file;
    }
}

/** Random circuits over every op, with tabled and untabled angles and
 *  operands above 255: the source-side digest must equal the
 *  reference fold over the lowered circuit. */
TEST(StableHash, SeededRandomLoweredDigestsMatchTheReference)
{
    std::mt19937_64 rng(20200530);
    const double pi = std::numbers::pi;
    // CPhase(pi) and CPhase(-pi) emit tabled +-pi/2 rotations; the
    // rest, and 0 and -0, fold byte by byte.
    const double angles[] = {pi / 2, -pi / 2, pi / 4, pi, -pi, pi / 8,
                             0.0, -0.0, 0.3, -1.7e-3};
    std::set<Op> seen;
    for (int seq = 0; seq < 40; ++seq) {
        const int qubits = 2 + static_cast<int>(rng() % 600);
        Circuit source(qubits, "random");
        const int length = 1 + static_cast<int>(rng() % 300);
        for (int i = 0; i < length; ++i) {
            const auto op = static_cast<Op>(rng() % digest_detail::kOpCount);
            const auto q0 = static_cast<QubitId>(rng() % qubits);
            auto q1 = static_cast<QubitId>(rng() % (qubits - 1));
            if (q1 >= q0)
                ++q1;
            const double angle = angles[rng() % std::size(angles)];
            if (op == Op::Barrier)
                source.add(Gate{});
            else if (op == Op::Measure)
                source.measure(q0);
            else if (isTwoQubit(op))
                source.add(Gate::two(op, q0, q1,
                                     opHasParam(op) ? angle : 0));
            else
                source.add(Gate::one(op, q0, opHasParam(op) ? angle : 0));
            seen.insert(op);
        }
        ASSERT_EQ(lanesOf(ResultStore::loweredCircuitDigest(source)),
                  referenceDigest(decomposeToNative(source)))
            << "circuit " << seq;
    }
    EXPECT_EQ(seen.size(), digest_detail::kOpCount);
}

} // namespace
} // namespace qccd
