/**
 * @file
 * Differential tests for StableHash (common/hash.hpp): its typed folds
 * skip work (zero high bytes as one multiply, i64(-1) as one
 * multiply-add), so every fold is checked against a byte-at-a-time
 * FNV-1a reference written here from the published definition. The
 * reference shares no code with hash.{hpp,cpp}: its constants, tags
 * and byte order are restated, not included.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>
#include <set>
#include <string>
#include <utility>

#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "common/hash.hpp"
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

  private:
    static constexpr uint64_t kPrime = 0x100000001b3ULL;
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

TEST(StableHash, EveryBuiltinNativeDigestMatchesTheReference)
{
    for (const BenchmarkSpec &spec : benchmarkList()) {
        const Circuit native =
            decomposeToNative(makeBenchmark(spec.name));
        ReferenceHash ref;
        ref.i64(native.numQubits());
        for (const Gate &g : native.gates()) {
            ref.i64(static_cast<int64_t>(g.op));
            ref.i64(g.q0);
            ref.i64(g.q1);
            ref.f64(g.param);
        }
        const Digest128 d = ResultStore::circuitDigest(native);
        EXPECT_EQ(std::make_pair(d.hi, d.lo), ref.lanes()) << spec.name;
    }
}

} // namespace
} // namespace qccd
