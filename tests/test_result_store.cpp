/**
 * @file
 * Tests for the crash-safe persistent result store
 * (core/result_store.hpp): the degradation matrix — torn tail, flipped
 * byte, bad framing, truncated header, version skew, foreign file,
 * stale and live locks — plus a seeded mutate-the-store fuzz (every
 * mutation yields a clean miss or a typed QccdError, never a wrong
 * value or a crash) and the runner-level contracts: warm runs emit
 * byte-identical rows without evaluation, cache faults degrade to a
 * cold run, and --cache-verify catches a tampered record. The scanner
 * is checked against an independent byte-serial reference on every
 * fuzz input and with a damaged record in every checksum lane.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <numbers>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "common/error.hpp"
#include "common/faultpoint.hpp"
#include "common/hash.hpp"
#include "core/export.hpp"
#include "core/result_store.hpp"
#include "core/sweep_engine.hpp"
#include "core/sweep_spec.hpp"

namespace qccd
{
namespace
{

std::string
pathIn(const std::string &name)
{
    return ::testing::TempDir() + "rstore_" + name;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** Remove the store file and its lock/quarantine sidecars. */
void
removeStoreFiles(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
    std::remove((path + ".quarantine").c_str());
}

/** A RunResult whose every serialized field is distinct (seeded so two
 *  calls with different seeds differ in all of them). */
RunResult
sampleResult(int seed)
{
    RunResult r;
    r.sim.makespan = 1000.5 + seed;
    r.sim.logFidelity = -0.25 - seed;
    r.sim.zeroFidelityOps = 1 + seed;
    r.sim.counts.algorithmMs = 10 + seed;
    r.sim.counts.reorderMs = 20 + seed;
    r.sim.counts.oneQubit = 30 + seed;
    r.sim.counts.measurements = 40 + seed;
    r.sim.counts.splits = 50 + seed;
    r.sim.counts.merges = 60 + seed;
    r.sim.counts.moves = 70 + seed;
    r.sim.counts.segmentsMoved = 80 + seed;
    r.sim.counts.junctionCrossings = 90 + seed;
    r.sim.counts.rotations = 100 + seed;
    r.sim.counts.transits = 110 + seed;
    r.sim.counts.shuttles = 120 + seed;
    r.sim.counts.evictions = 130 + seed;
    r.sim.counts.trapPassThroughs = 140 + seed;
    r.sim.maxChainEnergy = 2.5 + seed;
    r.sim.sumBackgroundError = 0.125 + seed;
    r.sim.sumMotionalError = 0.0625 + seed;
    r.sim.computeBusy = 3000.0 + seed;
    r.sim.commBusy = 4000.0 + seed;
    r.sim.effectiveBuffer = 2 + seed;
    r.computeOnlyTime = 800.25 + seed;
    return r;
}

Digest128
sampleKey(int n)
{
    return Digest128{0x1111111111111111ULL * (n + 1),
                     0x0101010101010101ULL * (n + 7)};
}

/** Bit-exact result equality via the store's own serializer. */
bool
sameResult(const Digest128 &key, const RunResult &a, const RunResult &b)
{
    return ResultStore::encodeRecordPayload(key, a) ==
           ResultStore::encodeRecordPayload(key, b);
}

/** File offset of record @p index in a healthy store. */
size_t
recordOffset(size_t index)
{
    const size_t frame = 12 + ResultStore::kPayloadSize;
    return ResultStore::kHeaderSize + index * frame;
}

/** Recompute record @p index's checksum after tampering its payload,
 *  so the forged record loads as valid. */
void
fixChecksum(std::string *bytes, size_t index)
{
    const size_t off = recordOffset(index);
    const size_t payload_off = off + 12;
    ASSERT_LE(payload_off + ResultStore::kPayloadSize, bytes->size());
    const uint64_t sum = fnv1a64(bytes->data() + payload_off,
                                 ResultStore::kPayloadSize);
    for (size_t i = 0; i < 8; ++i)
        (*bytes)[off + 4 + i] =
            static_cast<char>((sum >> (8 * i)) & 0xff);
}

/** A store at @p path holding sampleResult(0..count-1) under
 *  sampleKey(0..count-1); returns its bytes. */
std::string
buildStore(const std::string &path, int count)
{
    removeStoreFiles(path);
    {
        ResultStore store(path);
        for (int i = 0; i < count; ++i)
            store.insert(sampleKey(i), sampleResult(i));
    }
    return readBytes(path);
}

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

TEST(ResultStore, FreshOpenCreatesAValidEmptyStore)
{
    const std::string path = pathIn("fresh.qcache");
    removeStoreFiles(path);
    ResultStore store(path);
    EXPECT_EQ(store.entries(), 0u);
    EXPECT_EQ(store.stats().loaded, 0u);
    EXPECT_FALSE(store.stats().healedTail);
    EXPECT_EQ(readBytes(path), ResultStore::freshHeader());
}

TEST(ResultStore, InsertLookupRoundTripsAcrossReopen)
{
    const std::string path = pathIn("roundtrip.qcache");
    removeStoreFiles(path);
    {
        ResultStore store(path);
        store.insert(sampleKey(0), sampleResult(0));
        store.insert(sampleKey(1), sampleResult(1));
        EXPECT_EQ(store.stats().inserts, 2u);
        const std::optional<RunResult> hit =
            store.lookup(sampleKey(0));
        ASSERT_TRUE(hit.has_value());
        EXPECT_TRUE(sameResult(sampleKey(0), *hit, sampleResult(0)));
    }
    ResultStore again(path);
    EXPECT_EQ(again.stats().loaded, 2u);
    EXPECT_EQ(again.entries(), 2u);
    const std::optional<RunResult> hit = again.lookup(sampleKey(1));
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(sameResult(sampleKey(1), *hit, sampleResult(1)));
    EXPECT_FALSE(again.lookup(sampleKey(9)).has_value());
    EXPECT_EQ(again.stats().hits, 1u);
    EXPECT_EQ(again.stats().misses, 1u);
}

TEST(ResultStore, DuplicateInsertDoesNotGrowTheFile)
{
    const std::string path = pathIn("dup.qcache");
    removeStoreFiles(path);
    ResultStore store(path);
    store.insert(sampleKey(0), sampleResult(0));
    const std::string once = readBytes(path);
    // A replayed insert — even with a different value — is a no-op:
    // append-only plus first-wins is what keeps warm store bytes
    // deterministic under kill/resume.
    store.insert(sampleKey(0), sampleResult(5));
    EXPECT_EQ(readBytes(path), once);
    EXPECT_EQ(store.stats().inserts, 1u);
    const std::optional<RunResult> hit = store.lookup(sampleKey(0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(sameResult(sampleKey(0), *hit, sampleResult(0)));
}

TEST(ResultStore, EncodeDecodeRoundTripsAndRejectsWrongSize)
{
    const Digest128 key = sampleKey(3);
    const RunResult in = sampleResult(3);
    const std::string payload =
        ResultStore::encodeRecordPayload(key, in);
    ASSERT_EQ(payload.size(), ResultStore::kPayloadSize);
    Digest128 out_key;
    RunResult out;
    ASSERT_TRUE(
        ResultStore::decodeRecordPayload(payload, &out_key, &out));
    EXPECT_EQ(out_key, key);
    EXPECT_TRUE(sameResult(key, in, out));
    EXPECT_FALSE(ResultStore::decodeRecordPayload(
        payload.substr(1), &out_key, &out));
    EXPECT_FALSE(ResultStore::decodeRecordPayload(
        payload + "x", &out_key, &out));
}

TEST(ResultStore, KeySeesEveryKnobAndIgnoresNonResultFields)
{
    const DesignPoint design = DesignPoint::linear(6, 22);
    RunOptions options;
    const Digest128 digest{7, 9};
    const Digest128 base =
        ResultStore::keyFor(design, options, digest);
    EXPECT_EQ(ResultStore::keyFor(design, options, digest), base);

    DesignPoint d = design;
    d.trapCapacity = 23;
    EXPECT_NE(ResultStore::keyFor(d, options, digest), base);
    d = design;
    d.hw.heatingK1 *= 2;
    EXPECT_NE(ResultStore::keyFor(d, options, digest), base);
    d = design;
    d.hw.bufferSlots += 1;
    EXPECT_NE(ResultStore::keyFor(d, options, digest), base);

    RunOptions o = options;
    o.decomposeRuntime = true;
    EXPECT_NE(ResultStore::keyFor(design, o, digest), base);
    EXPECT_NE(ResultStore::keyFor(design, options, Digest128{7, 10}),
              base);

    // Nothing that cannot change the emitted metrics enters the key.
    o = options;
    o.pointTimeoutMs = 5000;
    o.cachePath = "/somewhere/else.qcache";
    EXPECT_EQ(ResultStore::keyFor(design, o, digest), base);
}

TEST(ResultStore, CircuitDigestIgnoresNameSeesContent)
{
    Circuit a(3, "one");
    a.h(0);
    a.cx(0, 1);
    Circuit b(3, "two");
    b.h(0);
    b.cx(0, 1);
    EXPECT_EQ(ResultStore::circuitDigest(a),
              ResultStore::circuitDigest(b));
    b.cx(1, 2);
    EXPECT_NE(ResultStore::circuitDigest(a),
              ResultStore::circuitDigest(b));
    Circuit c(3, "one");
    c.h(0);
    c.cx(1, 0); // operand order matters
    EXPECT_NE(ResultStore::circuitDigest(a),
              ResultStore::circuitDigest(c));
}

// Cache-schema-1 values written by the byte-serial hasher. Every key a
// user's store holds was built from these folds: if one of these
// moves, every existing cache silently goes cold.
TEST(ResultStore, SchemaOneDigestsAndKeysArePinned)
{
    StableHash absent;
    absent.i64(-1);
    EXPECT_EQ(absent.digest().hex(), "a81a0d3a8cd0ac4a61ef90473d98b541");

    StableHash gates;
    gates.i64(9);
    gates.i64(3);
    gates.i64(-1);
    gates.f64(std::numbers::pi / 2);
    gates.i64(14);
    gates.i64(0);
    gates.i64(5);
    gates.f64(0.0);
    EXPECT_EQ(gates.digest().hex(), "f09111e8dc30e28fade80f24c2e5223e");

    StableHash mixed;
    mixed.u32(1);
    mixed.str("linear:6");
    mixed.i64(-1);
    mixed.u64(0x0123456789abcdefULL);
    mixed.f64(-0.0);
    mixed.i64(std::numeric_limits<int64_t>::min());
    mixed.u64(std::numeric_limits<uint64_t>::max());
    mixed.str("");
    mixed.i64(-1);
    EXPECT_EQ(mixed.digest().hex(), "4b859db3d8b38711f3fa0ffb9e9ba77a");

    const Digest128 bv =
        ResultStore::circuitDigest(decomposeToNative(makeBenchmark("bv")));
    EXPECT_EQ(bv.hex(), "d568d84e7cb0ea398e5c817941f92cd6");
    const Digest128 qft = ResultStore::circuitDigest(
        decomposeToNative(makeBenchmark("qft")));
    EXPECT_EQ(qft.hex(), "281a7e7e11a1c8021e1bc611f746e0a9");

    EXPECT_EQ(ResultStore::keyFor(DesignPoint::linear(6, 22), RunOptions{},
                                  qft)
                  .hex(),
              "207bf56f80eb221a2ef232e8306f8647");
    RunOptions decomposed;
    decomposed.decomposeRuntime = true;
    EXPECT_EQ(ResultStore::keyFor(DesignPoint::grid(2, 3, 14, GateImpl::AM1,
                                                    ReorderMethod::IS),
                                  decomposed, qft)
                  .hex(),
              "966ffb76b0860f0b49a55f24cfb9a01a");
}

// ---------------------------------------------------------------------
// The degradation matrix
// ---------------------------------------------------------------------

TEST(ResultStore, TornTailIsHealedAtomically)
{
    const std::string path = pathIn("torn.qcache");
    const std::string whole = buildStore(path, 3);
    const std::string torn = whole.substr(0, whole.size() - 50);
    writeBytes(path, torn);
    {
        ResultStore store(path);
        EXPECT_TRUE(store.stats().healedTail);
        EXPECT_EQ(store.stats().loaded, 2u);
        EXPECT_EQ(store.stats().quarantined, 0u);
        EXPECT_TRUE(store.lookup(sampleKey(0)).has_value());
        EXPECT_TRUE(store.lookup(sampleKey(1)).has_value());
        EXPECT_FALSE(store.lookup(sampleKey(2)).has_value());
        // The torn record is re-appended where it was torn off, so
        // the healed-and-rewarmed store is byte-identical again.
        store.insert(sampleKey(2), sampleResult(2));
    }
    EXPECT_EQ(readBytes(path), whole);
    EXPECT_FALSE(fileExists(path + ".quarantine"));
}

TEST(ResultStore, ChecksumCorruptionIsQuarantinedAndBecomesAMiss)
{
    const std::string path = pathIn("flip.qcache");
    std::string bytes = buildStore(path, 3);
    bytes[recordOffset(1) + 12 + 40] ^= 0x01; // record 1's payload
    writeBytes(path, bytes);
    {
        ResultStore store(path);
        EXPECT_EQ(store.stats().quarantined, 1u);
        EXPECT_EQ(store.stats().loaded, 2u);
        EXPECT_TRUE(store.lookup(sampleKey(0)).has_value());
        EXPECT_FALSE(store.lookup(sampleKey(1)).has_value());
        EXPECT_TRUE(store.lookup(sampleKey(2)).has_value());
    }
    const std::string quarantine = readBytes(path + ".quarantine");
    EXPECT_NE(quarantine.find("reason=checksum"), std::string::npos);
    // Recovery converged: a second open finds a clean store.
    ResultStore again(path);
    EXPECT_EQ(again.stats().quarantined, 0u);
    EXPECT_FALSE(again.stats().healedTail);
    EXPECT_EQ(again.stats().loaded, 2u);
}

TEST(ResultStore, FrameCorruptionQuarantinesTheTailRegion)
{
    const std::string path = pathIn("frame.qcache");
    std::string bytes = buildStore(path, 3);
    bytes[recordOffset(1)] = static_cast<char>(0xff); // bogus length
    writeBytes(path, bytes);
    ResultStore store(path);
    // Framing is unrecoverable from that offset on: record 1 and
    // everything after it is one quarantined region.
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_EQ(store.stats().loaded, 1u);
    EXPECT_TRUE(store.lookup(sampleKey(0)).has_value());
    EXPECT_FALSE(store.lookup(sampleKey(1)).has_value());
    EXPECT_FALSE(store.lookup(sampleKey(2)).has_value());
    EXPECT_NE(readBytes(path + ".quarantine").find("reason=frame"),
              std::string::npos);
}

TEST(ResultStore, TornHeaderHealsToAFreshStore)
{
    const std::string path = pathIn("hdrtorn.qcache");
    removeStoreFiles(path);
    writeBytes(path, ResultStore::freshHeader().substr(0, 5));
    ResultStore store(path);
    EXPECT_EQ(store.entries(), 0u);
    EXPECT_TRUE(store.stats().healedTail);
    EXPECT_EQ(readBytes(path).substr(0, ResultStore::kHeaderSize),
              ResultStore::freshHeader());
}

TEST(ResultStore, ForeignFileIsRefusedNotHealed)
{
    const std::string path = pathIn("foreign.qcache");
    removeStoreFiles(path);
    writeBytes(path, "app,topology,capacity\nqft,linear:6,22\n");
    try {
        ResultStore store(path);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        EXPECT_NE(
            std::string(err.what()).find("not a qccd result cache"),
            std::string::npos);
    }
    // Refusal must not destroy the foreign file.
    EXPECT_EQ(readBytes(path).substr(0, 3), "app");
}

TEST(ResultStore, VersionSkewIsRefusedWithAPointedDiagnostic)
{
    const std::string path = pathIn("skew.qcache");
    std::string bytes = buildStore(path, 1);
    bytes[ResultStore::kMagicSize] =
        static_cast<char>(ResultStore::kSchemaVersion + 1);
    writeBytes(path, bytes);
    try {
        ResultStore store(path);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find("schema version"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// The lock protocol
// ---------------------------------------------------------------------

TEST(ResultStore, LiveLockIsRefusedNamingTheOwner)
{
    const std::string path = pathIn("livelock.qcache");
    removeStoreFiles(path);
    writeBytes(path + ".lock", std::to_string(::getpid()) + "\n");
    try {
        ResultStore store(path);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("locked by running process"),
                  std::string::npos);
        EXPECT_NE(what.find(std::to_string(::getpid())),
                  std::string::npos);
    }
    removeStoreFiles(path);
}

TEST(ResultStore, StaleLockFromADeadProcessIsTakenOver)
{
    const std::string path = pathIn("stalelock.qcache");
    removeStoreFiles(path);
    // A real pid that is certainly dead: fork a child that exits
    // immediately and reap it.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    writeBytes(path + ".lock", std::to_string(child) + "\n");
    {
        ResultStore store(path);
        store.insert(sampleKey(0), sampleResult(0));
    }
    EXPECT_FALSE(fileExists(path + ".lock"));
}

TEST(ResultStore, LockIsReleasedOnClose)
{
    const std::string path = pathIn("relock.qcache");
    removeStoreFiles(path);
    { ResultStore store(path); }
    EXPECT_FALSE(fileExists(path + ".lock"));
    ResultStore again(path); // a second open must not be refused
    EXPECT_EQ(again.entries(), 0u);
}

TEST(ResultStore, ANonRegularPathIsRefusedAndLeftAsItWas)
{
    const std::string path = pathIn("dir.qcache");
    removeStoreFiles(path);
    std::remove((path + ".tmp").c_str());
    ::rmdir(path.c_str());
    ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
    const auto refusal = [&path]() -> std::string {
        try {
            ResultStore store(path);
        } catch (const ConfigError &err) {
            return err.what();
        }
        return "opened";
    };

    EXPECT_NE(refusal().find("'" + path + "' is not a regular file"),
              std::string::npos);
    EXPECT_FALSE(fileExists(path + ".lock"));
    EXPECT_FALSE(fileExists(path + ".tmp"));
    struct stat info {};
    ASSERT_EQ(::stat(path.c_str(), &info), 0);
    EXPECT_TRUE(S_ISDIR(info.st_mode));

    // The refusal comes before the lock: a live owner's lock is neither
    // reported nor touched.
    const std::string owner = std::to_string(::getpid()) + "\n";
    writeBytes(path + ".lock", owner);
    EXPECT_NE(refusal().find("is not a regular file"), std::string::npos);
    EXPECT_EQ(readBytes(path + ".lock"), owner);
    std::remove((path + ".lock").c_str());
    ::rmdir(path.c_str());
}

// A record whose key repeats an earlier one (only a forged or merged
// file holds one: insert never appends a known key) replaces it, and
// still counts as loaded.
TEST(ResultStore, ALaterDuplicateKeyWinsAndCountsAsLoaded)
{
    const std::string path = pathIn("dupkey.qcache");
    std::string bytes = buildStore(path, 2);
    const std::string payload =
        ResultStore::encodeRecordPayload(sampleKey(0), sampleResult(7));
    std::string frame(12, '\0');
    frame[0] = static_cast<char>(payload.size() & 0xff);
    frame[1] = static_cast<char>(payload.size() >> 8);
    bytes += frame + payload;
    fixChecksum(&bytes, 2);
    writeBytes(path, bytes);

    ResultStore store(path);
    EXPECT_EQ(store.stats().loaded, 3u);
    EXPECT_EQ(store.stats().quarantined, 0u);
    EXPECT_EQ(store.entries(), 2u);
    const std::optional<RunResult> hit = store.lookup(sampleKey(0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(sameResult(sampleKey(0), *hit, sampleResult(7)));
}

// Far more keys than the index's first table: every insert and every
// reopened record stays reachable across the index's growth.
TEST(ResultStore, ManyKeysStayReachableAcrossIndexGrowth)
{
    const std::string path = pathIn("many.qcache");
    constexpr int kKeys = 300;
    removeStoreFiles(path);
    {
        ResultStore store(path);
        for (int i = 0; i < kKeys; ++i)
            store.insert(sampleKey(i), sampleResult(i));
        EXPECT_EQ(store.entries(), static_cast<size_t>(kKeys));
        for (int i = 0; i < kKeys; ++i) {
            const std::optional<RunResult> hit = store.lookup(sampleKey(i));
            ASSERT_TRUE(hit.has_value()) << i;
            EXPECT_TRUE(sameResult(sampleKey(i), *hit, sampleResult(i))) << i;
        }
    }
    ResultStore again(path);
    EXPECT_EQ(again.stats().loaded, static_cast<size_t>(kKeys));
    for (int i = 0; i < kKeys; ++i) {
        const std::optional<RunResult> hit = again.lookup(sampleKey(i));
        ASSERT_TRUE(hit.has_value()) << i;
        EXPECT_TRUE(sameResult(sampleKey(i), *hit, sampleResult(i))) << i;
    }
    EXPECT_FALSE(again.lookup(sampleKey(kKeys)).has_value());
    removeStoreFiles(path);
}

// ---------------------------------------------------------------------
// scanResultStore (the lint-facing static half)
// ---------------------------------------------------------------------

/** What a byte-at-a-time reading of the documented format finds. It
 *  shares no code with scanResultStore: its own constants, its own
 *  little-endian reads and its own FNV-1a. */
struct ReferenceScan
{
    bool magicOk = false;
    bool headerTorn = false;
    uint32_t version = 0;
    bool versionOk = false;
    bool truncatedTail = false;
    size_t tornTailOffset = 0;
    struct Record
    {
        size_t offset;
        Digest128 key;
        std::string payload;
    };
    std::vector<Record> records;
    struct Defect
    {
        size_t offset;
        size_t length;
        std::string reason;
    };
    std::vector<Defect> defects;
};

ReferenceScan
referenceScan(const std::string &bytes)
{
    const std::string magic = "qccdRES\n";
    const std::string header = magic + std::string("\1\0\0\0\0\0\0\0", 8);
    const size_t payload_size = 204;
    const auto le = [&bytes](size_t at, int width) {
        uint64_t value = 0;
        for (int i = width - 1; i >= 0; --i)
            value = (value << 8) | static_cast<unsigned char>(
                                        bytes[at + static_cast<size_t>(i)]);
        return value;
    };

    ReferenceScan scan;
    scan.tornTailOffset = bytes.size();
    if (bytes.size() < header.size()) {
        bool prefix = true;
        for (size_t i = 0; i < bytes.size(); ++i)
            prefix = prefix && bytes[i] == header[i];
        scan.headerTorn = prefix || (bytes.size() >= magic.size() &&
                                     bytes.compare(0, 8, magic) == 0);
        scan.magicOk = scan.headerTorn && bytes.size() >= magic.size();
        return scan;
    }
    scan.magicOk = bytes.compare(0, 8, magic) == 0;
    if (!scan.magicOk)
        return scan;
    scan.version = static_cast<uint32_t>(le(8, 4));
    scan.versionOk = scan.version == 1;
    if (!scan.versionOk)
        return scan;

    size_t at = 16;
    while (at < bytes.size()) {
        const size_t left = bytes.size() - at;
        if (left < 12) {
            scan.truncatedTail = true;
            scan.tornTailOffset = at;
            break;
        }
        if (le(at, 4) != payload_size) {
            scan.defects.push_back({at, left, "frame"});
            scan.tornTailOffset = at;
            break;
        }
        if (left < 12 + payload_size) {
            scan.truncatedTail = true;
            scan.tornTailOffset = at;
            break;
        }
        uint64_t sum = 0xcbf29ce484222325ULL;
        for (size_t i = 0; i < payload_size; ++i) {
            sum ^= static_cast<unsigned char>(bytes[at + 12 + i]);
            sum *= 0x100000001b3ULL;
        }
        if (sum != le(at + 4, 8))
            scan.defects.push_back({at, 12 + payload_size, "checksum"});
        else
            scan.records.push_back({at,
                                    Digest128{le(at + 12, 8), le(at + 20, 8)},
                                    bytes.substr(at + 12, payload_size)});
        at += 12 + payload_size;
    }
    return scan;
}

/** scanResultStore(@p bytes) reports exactly what referenceScan does. */
void
expectScanMatchesReference(const std::string &bytes)
{
    const ResultStoreScan got = scanResultStore(bytes);
    const ReferenceScan want = referenceScan(bytes);
    EXPECT_EQ(got.magicOk, want.magicOk);
    EXPECT_EQ(got.headerTorn, want.headerTorn);
    EXPECT_EQ(got.version, want.version);
    EXPECT_EQ(got.versionOk, want.versionOk);
    EXPECT_EQ(got.truncatedTail, want.truncatedTail);
    EXPECT_EQ(got.tornTail(), want.headerTorn || want.truncatedTail);
    EXPECT_EQ(got.tornTailOffset, want.tornTailOffset);
    ASSERT_EQ(got.records.size(), want.records.size());
    for (size_t i = 0; i < want.records.size(); ++i) {
        EXPECT_EQ(got.records[i].offset, want.records[i].offset) << i;
        EXPECT_EQ(got.records[i].key, want.records[i].key) << i;
        EXPECT_EQ(std::string(got.records[i].payload),
                  want.records[i].payload)
            << i;
    }
    ASSERT_EQ(got.defects.size(), want.defects.size());
    for (size_t i = 0; i < want.defects.size(); ++i) {
        EXPECT_EQ(got.defects[i].offset, want.defects[i].offset) << i;
        EXPECT_EQ(got.defects[i].length, want.defects[i].length) << i;
        EXPECT_EQ(got.defects[i].reason, want.defects[i].reason) << i;
    }
}

TEST(ScanResultStore, ClassifiesPrefixesAndGarbage)
{
    const ResultStoreScan empty = scanResultStore("");
    EXPECT_FALSE(empty.magicOk);
    EXPECT_TRUE(empty.headerTorn); // zero bytes: a torn creation

    const ResultStoreScan fresh =
        scanResultStore(ResultStore::freshHeader());
    EXPECT_TRUE(fresh.magicOk);
    EXPECT_TRUE(fresh.versionOk);
    EXPECT_TRUE(fresh.records.empty());
    EXPECT_TRUE(fresh.defects.empty());
    EXPECT_FALSE(fresh.tornTail());

    const ResultStoreScan junk = scanResultStore("this is not a cache");
    EXPECT_FALSE(junk.magicOk);
    EXPECT_FALSE(junk.headerTorn);
}

// Stores of 0-9 records put a damaged record in every checksum lane
// and in the serial tail after the last whole group of lanes.
TEST(ScanResultStore, MatchesTheReferenceWithADefectAtEveryPosition)
{
    const std::string path = pathIn("lanes.qcache");
    for (int count = 0; count <= 9; ++count) {
        const std::string whole = buildStore(path, count);
        SCOPED_TRACE("records " + std::to_string(count));
        expectScanMatchesReference(whole);
        EXPECT_EQ(scanResultStore(whole).records.size(),
                  static_cast<size_t>(count));
        for (int at = 0; at < count; ++at) {
            SCOPED_TRACE("damaged record " + std::to_string(at));
            const size_t offset = recordOffset(static_cast<size_t>(at));

            std::string flipped = whole;
            flipped[offset + 12 + 100] ^= 0x20;
            expectScanMatchesReference(flipped);
            const ResultStoreScan scan = scanResultStore(flipped);
            ASSERT_EQ(scan.defects.size(), 1u);
            EXPECT_EQ(scan.defects[0].offset, offset);
            EXPECT_EQ(scan.records.size(), static_cast<size_t>(count - 1));

            std::string bad_sum = whole;
            bad_sum[offset + 4] ^= 0x01;
            expectScanMatchesReference(bad_sum);

            std::string reframed = whole;
            reframed[offset + 1] ^= 0x01;
            expectScanMatchesReference(reframed);

            // A checksum defect, then a frame defect after it: the
            // frame defect is reported last.
            std::string both = flipped;
            both[recordOffset(static_cast<size_t>(count - 1)) + 1] ^= 0x01;
            expectScanMatchesReference(both);

            expectScanMatchesReference(whole.substr(0, offset + 7));
            expectScanMatchesReference(whole.substr(0, offset + 100));
        }
    }
    removeStoreFiles(path);
}

// ---------------------------------------------------------------------
// Mutate-the-store fuzz
// ---------------------------------------------------------------------

/** 400 random corruptions of a healthy store. The invariant: opening
 *  either throws a typed QccdError (refusal) or yields a store whose
 *  every lookup is a clean miss or the exact original value — never a
 *  wrong value, never a crash — and recovery converges (the second
 *  open of a healed file finds nothing left to heal). */
TEST(ResultStore, MutateTheStoreFuzzNeverYieldsAWrongValue)
{
    const std::string path = pathIn("fuzz.qcache");
    constexpr int kRecords = 4;
    const std::string base = buildStore(path, kRecords);

    std::mt19937 rng(20260808u);
    const auto byteAt = [&rng](size_t size) {
        return std::uniform_int_distribution<size_t>(0, size - 1)(rng);
    };

    for (int iter = 0; iter < 400; ++iter) {
        std::string bytes = base;
        switch (iter % 4) {
        case 0: { // flip 1..4 random bytes
            const int flips = 1 + iter % 4;
            for (int f = 0; f < flips; ++f)
                bytes[byteAt(bytes.size())] ^= static_cast<char>(
                    1 + byteAt(255));
            break;
        }
        case 1: // truncate anywhere (including to empty)
            bytes.resize(byteAt(bytes.size() + 1));
            break;
        case 2: { // append garbage
            const size_t extra = 1 + byteAt(64);
            for (size_t e = 0; e < extra; ++e)
                bytes.push_back(
                    static_cast<char>(byteAt(256)));
            break;
        }
        default: { // smash a random run of bytes
            const size_t at = byteAt(bytes.size());
            const size_t len =
                std::min(bytes.size() - at, 1 + byteAt(32));
            for (size_t b = 0; b < len; ++b)
                bytes[at + b] = static_cast<char>(byteAt(256));
            break;
        }
        }
        {
            SCOPED_TRACE("iteration " + std::to_string(iter));
            expectScanMatchesReference(bytes);
        }
        removeStoreFiles(path);
        writeBytes(path, bytes);

        try {
            size_t survivors = 0;
            {
                ResultStore store(path);
                for (int k = 0; k < kRecords; ++k) {
                    const std::optional<RunResult> got =
                        store.lookup(sampleKey(k));
                    if (!got.has_value())
                        continue;
                    ++survivors;
                    EXPECT_TRUE(sameResult(sampleKey(k), *got,
                                           sampleResult(k)))
                        << "iteration " << iter << " record " << k;
                }
            }
            ResultStore again(path);
            EXPECT_EQ(again.stats().quarantined, 0u)
                << "iteration " << iter;
            EXPECT_FALSE(again.stats().healedTail)
                << "iteration " << iter;
            EXPECT_EQ(again.stats().loaded, survivors)
                << "iteration " << iter;
        } catch (const QccdError &) {
            // Typed refusal (bad magic, version skew): acceptable.
        }
    }
    removeStoreFiles(path);
}

// ---------------------------------------------------------------------
// Runner integration
// ---------------------------------------------------------------------

/** Disarms fault injection after every test, pass or fail. */
class CachedRunnerTest : public ::testing::Test
{
  protected:
    void TearDown() override { clearFaultInject(); }

    static SweepPlan threePoints()
    {
        return parseSweepPlan(R"({
            "name": "cache",
            "sweeps": [{"apps": "qft", "capacity": [14, 18, 22]}]
        })");
    }

    /** Run the three points and render each emitted row. */
    static std::vector<std::string>
    runRows(ResultStore *cache, bool verify, SweepRunStats *stats)
    {
        SweepEngine engine(1);
        SweepSpecRunner runner(engine);
        SweepRunPolicy policy;
        policy.cache = cache;
        policy.cacheVerify = verify;
        std::vector<std::string> rows;
        const SweepRunStats s = runner.run(
            threePoints(), indexRange(0, 3),
            [&](size_t, const SweepPoint &p) {
                rows.push_back(sweepCsvRow(p));
            },
            policy);
        if (stats != nullptr)
            *stats = s;
        return rows;
    }
};

TEST_F(CachedRunnerTest, WarmRunEmitsByteIdenticalRowsWithoutWork)
{
    const std::vector<std::string> reference =
        runRows(nullptr, false, nullptr);
    ASSERT_EQ(reference.size(), 3u);

    const std::string path = pathIn("runner.qcache");
    removeStoreFiles(path);
    {
        ResultStore store(path);
        SweepRunStats cold;
        EXPECT_EQ(runRows(&store, false, &cold), reference);
        EXPECT_EQ(cold.cacheHits, 0u);
        EXPECT_EQ(store.stats().inserts, 3u);
    }
    ResultStore store(path);
    EXPECT_EQ(store.stats().loaded, 3u);
    // Every point is keyed from its source circuit, so a warm run
    // lowers nothing: an armed lowering fault never fires.
    setFaultInjectSpec("engine.lower=1");
    SweepRunStats warm;
    EXPECT_EQ(runRows(&store, false, &warm), reference);
    EXPECT_EQ(warm.cacheHits, 3u);
    EXPECT_EQ(warm.failed, 0u);
    EXPECT_EQ(store.stats().inserts, 0u);

    // Verify mode recomputes its hits, so it lowers and trips it.
    setFaultInjectSpec("engine.lower=1");
    EXPECT_THROW(runRows(&store, true, nullptr), InternalError);
}

TEST_F(CachedRunnerTest, CacheFaultsDegradeToAColdRunNotAFailure)
{
    const std::vector<std::string> reference =
        runRows(nullptr, false, nullptr);
    const std::string path = pathIn("degrade.qcache");
    for (const char *site : {"cache.lookup", "cache.append"}) {
        removeStoreFiles(path);
        ResultStore store(path);
        setFaultInjectSpec(std::string(site) + "=1");
        SweepRunStats stats;
        EXPECT_EQ(runRows(&store, false, &stats), reference) << site;
        clearFaultInject();
        EXPECT_EQ(stats.cacheHits, 0u) << site;
        EXPECT_EQ(stats.failed, 0u) << site;
    }
    // cache.open faults the constructor itself; the CLI turns that
    // into a warning and a cacheless run.
    removeStoreFiles(path);
    setFaultInjectSpec("cache.open=1");
    EXPECT_THROW(ResultStore{path}, InternalError);
    clearFaultInject();
}

TEST_F(CachedRunnerTest, VerifyModeCatchesATamperedRecord)
{
    const std::vector<std::string> reference =
        runRows(nullptr, false, nullptr);
    const std::string path = pathIn("verify.qcache");
    removeStoreFiles(path);
    {
        ResultStore store(path);
        runRows(&store, false, nullptr);
    }

    // An honest warm store verifies clean.
    {
        ResultStore store(path);
        SweepRunStats stats;
        EXPECT_EQ(runRows(&store, true, &stats), reference);
        EXPECT_EQ(stats.cacheHits, 3u);
        EXPECT_EQ(stats.cacheDivergent, 0u);
    }

    // Forge record 1: perturb its makespan field (payload bytes 16..23
    // hold the first f64 after the 128-bit key) and re-checksum, so
    // the record loads as valid but disagrees with recomputation —
    // exactly the corruption class checksums cannot catch.
    std::string bytes = readBytes(path);
    bytes[recordOffset(1) + 12 + 16] ^= 0x01;
    fixChecksum(&bytes, 1);
    writeBytes(path, bytes);

    ResultStore store(path);
    EXPECT_EQ(store.stats().quarantined, 0u); // the forgery loads
    SweepRunStats stats;
    // Verify recomputes every hit, so the emitted rows are still the
    // honest ones, and the tampered record is counted.
    EXPECT_EQ(runRows(&store, true, &stats), reference);
    EXPECT_EQ(stats.cacheHits, 3u);
    EXPECT_EQ(stats.cacheDivergent, 1u);
}

// The runner memoizes circuit digests per circuit object. A caller-owned
// native circuit freed between run() calls must not let a different
// circuit, allocated at the same address, inherit its digest and so
// its cached rows.
TEST_F(CachedRunnerTest, FreedCallerCircuitCannotLendItsDigest)
{
    const std::string path = pathIn("memo.qcache");
    removeStoreFiles(path);
    ResultStore store(path);
    SweepEngine engine(1);
    SweepSpecRunner runner(engine);
    SweepRunPolicy policy;
    policy.cache = &store;

    // Same gate count; only the last gate differs (Z vs. measure).
    const auto lowered = [](bool measure_last) {
        Circuit c(4, "memo");
        c.h(0);
        c.cx(0, 1);
        c.cx(1, 2);
        c.cx(2, 3);
        if (measure_last)
            c.measure(3);
        else
            c.z(3);
        return std::make_shared<const Circuit>(decomposeToNative(c));
    };
    const auto runOne = [&](std::shared_ptr<const Circuit> native,
                            RunResult *result) {
        PlannedPoint point;
        point.application = "memo";
        point.native = std::move(native);
        point.design = DesignPoint::linear(6, 22);
        SweepPlan plan;
        plan.grids.emplace_back(std::move(point),
                                std::vector<SweepGrid::Axis>{});
        return runner.run(
            plan, indexRange(0, 1),
            [&](size_t, const SweepPoint &p) { *result = p.result; },
            policy);
    };

    std::shared_ptr<const Circuit> a = lowered(false);
    RunResult a_result;
    EXPECT_EQ(runOne(a, &a_result).cacheHits, 0u);
    a.reset();

    // B usually lands at A's freed address; the contract holds either way.
    std::shared_ptr<const Circuit> b = lowered(true);
    RunResult b_result;
    EXPECT_EQ(runOne(b, &b_result).cacheHits, 0u);
    EXPECT_EQ(store.stats().inserts, 2u);
    const RunResult cold = runToolflow(*b, DesignPoint::linear(6, 22));
    EXPECT_TRUE(sameResult(sampleKey(0), b_result, cold));
    EXPECT_FALSE(sameResult(sampleKey(0), b_result, a_result));
}

} // namespace
} // namespace qccd
