/**
 * @file
 * Tests for the declarative sweep-spec subsystem (core/sweep_spec.hpp):
 * parser semantics, fuzzed malformed input (clean ConfigError, never a
 * crash), shard arithmetic, and the differential guarantee — engine
 * evaluation of randomly drawn spec grids is bit-identical to direct
 * point-by-point runToolflow calls, for any worker count and any shard
 * partition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "circuit/qasm/parser.hpp"
#include "circuit/qasm/writer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/export.hpp"
#include "core/sweep_engine.hpp"
#include "core/sweep_spec.hpp"

namespace qccd
{
namespace
{

// ---------------------------------------------------------------------
// Parser semantics
// ---------------------------------------------------------------------

TEST(SweepSpecParse, MinimalSpec)
{
    const SweepPlan plan = parseSweepPlan(R"({
        "name": "tiny",
        "sweeps": [{"apps": "qft"}]
    })");
    EXPECT_EQ(plan.name, "tiny");
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan.point(0).application, "qft");
    EXPECT_TRUE(plan.point(0).qasmPath.empty());
    // Defaults match DesignPoint/RunOptions defaults.
    EXPECT_EQ(plan.point(0).design.topologySpec, "linear:6");
    EXPECT_EQ(plan.point(0).design.trapCapacity, 22);
    EXPECT_EQ(plan.point(0).design.hw.gateImpl, GateImpl::FM);
    EXPECT_EQ(plan.point(0).design.hw.reorder, ReorderMethod::GS);
    EXPECT_EQ(plan.point(0).design.hw.bufferSlots, 2);
    EXPECT_FALSE(plan.point(0).options.decomposeRuntime);
}

TEST(SweepSpecParse, AxesExpandInDeclarationOrderFirstSlowest)
{
    const SweepPlan plan = parseSweepPlan(R"({
        "name": "order",
        "sweeps": [{
            "apps": ["qft", "bv"],
            "gate": ["FM", "PM"],
            "capacity": [14, 18]
        }]
    })");
    ASSERT_EQ(plan.size(), 8u);
    // apps varies slowest, capacity fastest.
    EXPECT_EQ(plan.point(0).application, "qft");
    EXPECT_EQ(plan.point(0).design.hw.gateImpl, GateImpl::FM);
    EXPECT_EQ(plan.point(0).design.trapCapacity, 14);
    EXPECT_EQ(plan.point(1).design.trapCapacity, 18);
    EXPECT_EQ(plan.point(2).design.hw.gateImpl, GateImpl::PM);
    EXPECT_EQ(plan.point(2).design.trapCapacity, 14);
    EXPECT_EQ(plan.point(4).application, "bv");
    EXPECT_EQ(plan.point(7).application, "bv");
    EXPECT_EQ(plan.point(7).design.hw.gateImpl, GateImpl::PM);
    EXPECT_EQ(plan.point(7).design.trapCapacity, 18);
}

TEST(SweepSpecParse, GridsConcatenateInFileOrder)
{
    const SweepPlan plan = parseSweepPlan(R"({
        "name": "two",
        "sweeps": [
            {"apps": "qft", "topology": "linear:6"},
            {"apps": "qft", "topology": "grid:2x3"}
        ]
    })");
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.point(0).design.topologySpec, "linear:6");
    EXPECT_EQ(plan.point(1).design.topologySpec, "grid:2x3");
}

TEST(SweepSpecParse, ParamsOverridesAndCoVaryingAxis)
{
    const SweepPlan plan = parseSweepPlan(R"({
        "name": "p",
        "sweeps": [{
            "apps": "qft",
            "params": [
                {"heating_k1": 0.2, "heating_k2": 0.02},
                {"gamma_per_s": 2.5, "split_us": 160.0,
                 "buffer_slots": 3}
            ]
        }]
    })");
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_DOUBLE_EQ(plan.point(0).design.hw.heatingK1, 0.2);
    EXPECT_DOUBLE_EQ(plan.point(0).design.hw.heatingK2, 0.02);
    EXPECT_DOUBLE_EQ(plan.point(0).design.hw.gammaPerS, 1.0);
    EXPECT_DOUBLE_EQ(plan.point(1).design.hw.gammaPerS, 2.5);
    EXPECT_DOUBLE_EQ(plan.point(1).design.hw.shuttle.split, 160.0);
    EXPECT_EQ(plan.point(1).design.hw.bufferSlots, 3);
    // The second axis value must not inherit the first one's overrides.
    EXPECT_DOUBLE_EQ(plan.point(1).design.hw.heatingK1, 0.1);
}

TEST(SweepSpecParse, EveryHardwareOverrideKeyIsApplicable)
{
    for (const std::string &key : hardwareOverrideKeys()) {
        HardwareParams params;
        EXPECT_NO_THROW(applyHardwareOverride(params, key, 1.0)) << key;
    }
    HardwareParams params;
    EXPECT_THROW(applyHardwareOverride(params, "no_such_knob", 1.0),
                 ConfigError);
    // Integer knobs reject fractions, and values no int can hold are
    // rejected before narrowing (which would be undefined behaviour).
    for (const double bad : {1.5, 2147483648.0, -1e30, std::nan("")})
        EXPECT_THROW(applyHardwareOverride(params, "buffer_slots", bad),
                     ConfigError)
            << bad;
    applyHardwareOverride(params, "buffer_slots", 2147483647.0);
    EXPECT_EQ(params.bufferSlots, 2147483647);
}

TEST(SweepSpecParse, QasmAppsResolveRelativeToBaseDir)
{
    const std::string dir = ::testing::TempDir();
    Circuit c(2, "pair");
    c.h(0);
    c.cx(0, 1);
    qasm::writeFile(c, dir + "/pair.qasm");

    const SweepPlan plan = parseSweepPlan(R"({
        "name": "q",
        "sweeps": [{"apps": ["qasm:pair.qasm"]}]
    })", "inline", dir);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan.point(0).application, "pair");
    EXPECT_EQ(plan.point(0).qasmPath, dir + "/pair.qasm");
}

TEST(SweepSpecParse, CommentsAndTrailingCommasAccepted)
{
    const SweepPlan plan = parseSweepPlan(
        "# leading comment\n"
        "{\n"
        "  \"name\": \"c\", # inline comment\n"
        "  \"sweeps\": [{\"apps\": [\"qft\",], \"capacity\": [14, 18,],},],\n"
        "}\n");
    EXPECT_EQ(plan.size(), 2u);
}

TEST(SweepSpecParse, OptionsApplyGridWide)
{
    const SweepPlan plan = parseSweepPlan(R"({
        "name": "o",
        "sweeps": [
            {"apps": "qft", "options": {"decompose_runtime": true}},
            {"apps": "qft"}
        ]
    })");
    EXPECT_TRUE(plan.point(0).options.decomposeRuntime);
    EXPECT_FALSE(plan.point(1).options.decomposeRuntime);
}

/** Expect a ConfigError whose message contains @p fragment. */
void
expectParseError(const std::string &text, const std::string &fragment)
{
    try {
        parseSweepPlan(text, "spec");
        FAIL() << "expected ConfigError for: " << text;
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find(fragment),
                  std::string::npos)
            << "message '" << err.what() << "' lacks '" << fragment
            << "'";
    }
}

TEST(SweepSpecParse, SchemaErrorsAreCleanAndPositioned)
{
    expectParseError("", "unexpected end of input");
    expectParseError("{", "expected a quoted object key");
    expectParseError("[1, 2]", "spec document must be a object");
    expectParseError(R"({"sweeps": [{"apps": "qft"}]})", "missing \"name\"");
    expectParseError(R"({"name": "x"})", "non-empty \"sweeps\"");
    expectParseError(R"({"name": "x", "sweeps": []})",
                     "non-empty \"sweeps\"");
    expectParseError(R"({"name": "x", "sweeps": [{}]})",
                     "missing \"apps\"");
    expectParseError(R"({"name": "a b", "sweeps": [{"apps": "qft"}]})",
                     "may only contain");
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "nonesuch"}]})",
        "unknown application");
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "qft", "gate": "XX"}]})",
        "unknown gate implementation");
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "qft", "widget": 1}]})",
        "unknown grid key");
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "qft", "capacity": 1.5}]})",
        "must be an integer");
    // Out of the target type's range: rejected before any narrowing
    // cast (converting such a double is undefined behaviour).
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "qft", "capacity": [1e10]}]})",
        "must be an integer in int range");
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "qft",)"
        R"( "options": {"point_timeout_ms": 1e12}}]})",
        "must be an integer in int range");
    for (const char *seed : {"-1", "1e30"})
        expectParseError(std::string(R"({"name": "x", "search": {"seed": )") +
                             seed + R"(}, "sweeps": [{"apps": "qft"}]})",
                         "non-negative integer below 2^64");
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "qft", "capacity": []}]})",
        "must not be empty");
    // Device bounds fail at parse time, not per point at run time.
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "qft", "capacity": [1, 14]}]})",
        "spec:1:55: trap capacity must be at least 2, got 1");
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "qft", "buffer": -1}]})",
        "spec:1:52: parameter 'buffer_slots' must be non-negative");
    // So do "params" values outside their knob's range, each checked
    // on its own at the value's position.
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "qft",)"
        R"( "params": {"kappa": -1}}]})",
        "spec:1:62: parameter 'kappa' must be non-negative");
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "qft",)"
        R"( "params": {"buffer_slots": -3}}]})",
        "spec:1:69: parameter 'buffer_slots' must be non-negative");
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "qft",)"
        R"( "params": {"recool_factor": 2}}]})",
        "spec:1:70: parameter 'recool_factor' must be in (0, 1]");
    expectParseError(
        R"({"name": "x", "sweeps": [{"apps": "qft",)"
        R"( "params": {"bogus_knob": 1}}]})",
        "unknown hardware parameter");
    expectParseError(
        R"({"name": "x", "name": "y", "sweeps": [{"apps": "qft"}]})",
        "duplicate key");
    expectParseError(R"({"name": "x", "sweeps": [{"apps": "qft"}]} !)",
                     "trailing content");
    // Error messages carry origin:line:column.
    try {
        parseSweepPlan("{\n  \"name\": 7\n}", "myfile.sweep");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find("myfile.sweep:2:11"),
                  std::string::npos)
            << err.what();
    }
    // ... and carry it exactly once, including on schema errors raised
    // from inside the axis appliers (a re-wrap used to double it).
    for (const char *bad :
         {R"({"name": "x", "sweeps": [{"apps": "qft",)"
          R"( "capacity": "big"}]})",
          R"({"name": "x", "sweeps": [{"apps": "qft",)"
          R"( "gate": "ZZ"}]})",
          R"({"name": "x", "sweeps": [{"apps": "nonesuch"}]})"}) {
        try {
            parseSweepPlan(bad, "once.sweep");
            FAIL() << "expected ConfigError for: " << bad;
        } catch (const ConfigError &err) {
            const std::string msg = err.what();
            const size_t first = msg.find("once.sweep:");
            ASSERT_NE(first, std::string::npos) << msg;
            EXPECT_EQ(msg.find("once.sweep:", first + 1),
                      std::string::npos)
                << "position prefix doubled: " << msg;
        }
    }
}

TEST(SweepSpecParse, DeeplyNestedInputErrorsInsteadOfOverflowing)
{
    std::string bomb(2000, '[');
    EXPECT_THROW(parseSweepPlan(bomb), ConfigError);
}

// ---------------------------------------------------------------------
// Fuzzed malformed input: parse must either succeed or throw QccdError;
// anything else (crash, hang, foreign exception) fails the test.
// ---------------------------------------------------------------------

std::string
randomValidSpecText(Rng &rng)
{
    static const char *kApps[] = {"qft", "bv", "adder", "qaoa"};
    static const char *kGates[] = {"AM1", "AM2", "PM", "FM"};
    std::ostringstream out;
    out << "{\"name\": \"fuzz" << rng.nextInt(0, 99)
        << "\", \"sweeps\": [";
    const int grids = rng.nextInt(1, 3);
    for (int g = 0; g < grids; ++g) {
        out << (g ? ", " : "") << "{\"apps\": [\""
            << kApps[rng.nextInt(0, 3)] << "\"]";
        if (rng.nextBool())
            out << ", \"capacity\": [" << rng.nextInt(2, 34) << ", "
                << rng.nextInt(2, 34) << "]";
        if (rng.nextBool())
            out << ", \"gate\": \"" << kGates[rng.nextInt(0, 3)] << "\"";
        if (rng.nextBool())
            out << ", \"params\": {\"heating_k1\": "
                << rng.nextDouble() << "}";
        if (rng.nextBool())
            out << ", \"options\": {\"decompose_runtime\": "
                << (rng.nextBool() ? "true" : "false") << "}";
        out << "}";
    }
    out << "]}";
    return out.str();
}

TEST(SweepSpecFuzz, GarbledInputNeverCrashes)
{
    Rng rng(0x5eedf00dULL);
    const std::string garbage_alphabet =
        "{}[]\",:#.-+eE0123456789abz \n\\\t";
    int parsed_ok = 0;
    for (int iter = 0; iter < 200; ++iter) {
        std::string text = randomValidSpecText(rng);
        // Mutate: truncate, splice garbage, or delete a span.
        switch (rng.nextInt(0, 3)) {
          case 0:
            text.resize(rng.nextBelow(text.size() + 1));
            break;
          case 1: {
            const int edits = rng.nextInt(1, 8);
            for (int e = 0; e < edits && !text.empty(); ++e)
                text[rng.nextBelow(text.size())] = garbage_alphabet
                    [rng.nextBelow(garbage_alphabet.size())];
            break;
          }
          case 2: {
            const size_t from = rng.nextBelow(text.size() + 1);
            const size_t len = rng.nextBelow(text.size() - from + 1);
            text.erase(from, len);
            break;
          }
          default:
            break; // keep valid — parser must accept
        }
        try {
            parseSweepPlan(text, "fuzz");
            ++parsed_ok;
        } catch (const QccdError &) {
            // Clean, typed failure: exactly what malformed input owes us.
        }
    }
    // The unmutated case (default branch) must parse, so some succeed.
    EXPECT_GT(parsed_ok, 0);
}

TEST(SweepSpecFuzz, RandomBytesNeverCrash)
{
    Rng rng(0xbadcafeULL);
    for (int iter = 0; iter < 200; ++iter) {
        std::string text;
        const int len = rng.nextInt(0, 120);
        for (int i = 0; i < len; ++i)
            text.push_back(static_cast<char>(rng.nextInt(1, 126)));
        try {
            parseSweepPlan(text, "bytes");
        } catch (const QccdError &) {
        }
    }
}

// ---------------------------------------------------------------------
// Shard arithmetic
// ---------------------------------------------------------------------

TEST(SweepShardTest, RangesPartitionAndBalance)
{
    for (size_t total : {0u, 1u, 5u, 17u, 288u}) {
        for (int count : {1, 2, 3, 7}) {
            size_t covered = 0;
            size_t min_size = total + 1;
            size_t max_size = 0;
            size_t expected_first = 0;
            for (int i = 0; i < count; ++i) {
                const auto [first, last] = shardRange(total, i, count);
                EXPECT_EQ(first, expected_first);
                EXPECT_LE(last, total);
                expected_first = last;
                covered += last - first;
                min_size = std::min(min_size, last - first);
                max_size = std::max(max_size, last - first);
            }
            EXPECT_EQ(covered, total);
            EXPECT_LE(max_size - min_size, 1u)
                << "unbalanced shards for " << total << "/" << count;
        }
    }
}

TEST(SweepShardTest, ParseShardAcceptsAndRejects)
{
    EXPECT_EQ(parseShard("0/1").index, 0);
    EXPECT_EQ(parseShard("2/5").index, 2);
    EXPECT_EQ(parseShard("2/5").count, 5);
    EXPECT_THROW(parseShard(""), ConfigError);
    EXPECT_THROW(parseShard("3"), ConfigError);
    EXPECT_THROW(parseShard("a/b"), ConfigError);
    EXPECT_THROW(parseShard("1/0"), ConfigError);
    EXPECT_THROW(parseShard("5/5"), ConfigError);
    EXPECT_THROW(parseShard("-1/4"), ConfigError);
    EXPECT_THROW(parseShard("1/4x"), ConfigError);
}

// ---------------------------------------------------------------------
// Differential: engine-evaluated spec grids vs direct runToolflow,
// bit for bit, across worker counts and shard partitions.
// ---------------------------------------------------------------------

class SweepSpecDifferential : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        dir_ = new std::string(::testing::TempDir());
        qasm::writeFile(makeBenchmarkSized("qft", 8),
                        *dir_ + "/qft8.qasm");
        qasm::writeFile(makeBenchmarkSized("adder", 9),
                        *dir_ + "/adder9.qasm");
        Circuit mixed(6, "mixed");
        mixed.h(0);
        mixed.cx(0, 5);
        mixed.cphase(1, 4, 0.375);
        mixed.swap(2, 3);
        mixed.ms(0, 3, 0.5);
        mixed.rz(5, -1.25);
        mixed.measureAll();
        qasm::writeFile(mixed, *dir_ + "/mixed.qasm");
    }

    static void TearDownTestSuite()
    {
        delete dir_;
        dir_ = nullptr;
    }

    static std::string *dir_;
};

std::string *SweepSpecDifferential::dir_ = nullptr;

/** Exact-equality comparison on everything the exporter reads. */
void
expectBitIdentical(const SweepPoint &a, const SweepPoint &b,
                   const std::string &what)
{
    EXPECT_EQ(a.application, b.application) << what;
    EXPECT_EQ(a.design.topologySpec, b.design.topologySpec) << what;
    EXPECT_EQ(a.design.trapCapacity, b.design.trapCapacity) << what;
    EXPECT_EQ(a.result.sim.makespan, b.result.sim.makespan) << what;
    EXPECT_EQ(a.result.computeOnlyTime, b.result.computeOnlyTime)
        << what;
    EXPECT_EQ(a.result.sim.logFidelity, b.result.sim.logFidelity)
        << what;
    EXPECT_EQ(a.result.sim.maxChainEnergy, b.result.sim.maxChainEnergy)
        << what;
    EXPECT_EQ(a.result.sim.counts.algorithmMs,
              b.result.sim.counts.algorithmMs)
        << what;
    EXPECT_EQ(a.result.sim.counts.reorderMs,
              b.result.sim.counts.reorderMs)
        << what;
    EXPECT_EQ(a.result.sim.counts.shuttles, b.result.sim.counts.shuttles)
        << what;
    EXPECT_EQ(a.result.sim.counts.evictions,
              b.result.sim.counts.evictions)
        << what;
    EXPECT_EQ(sweepCsvRow(a), sweepCsvRow(b)) << what;
}

std::string
randomGridText(Rng &rng)
{
    static const char *kQasm[] = {"qft8.qasm", "adder9.qasm",
                                  "mixed.qasm"};
    static const char *kTopos[] = {"linear:2", "linear:3", "linear:4",
                                   "grid:2x2", "grid:2x3"};
    static const char *kGates[] = {"AM1", "AM2", "PM", "FM"};
    static const char *kParams[] = {
        R"({"heating_k1": 0.2, "heating_k2": 0.02})",
        R"({"gamma_per_s": 2.0, "kappa": 1e-5})",
        R"({"recool_factor": 0.5})",
        R"({"move_per_segment_us": 7.5, "split_us": 120.0})",
        R"({"one_qubit_us": 6.25})",
    };
    std::ostringstream out;
    out << "{\"name\": \"diff\", \"sweeps\": [{";
    out << "\"apps\": [";
    const int napps = rng.nextInt(1, 2);
    for (int a = 0; a < napps; ++a)
        out << (a ? ", " : "") << "\"qasm:" << kQasm[rng.nextInt(0, 2)]
            << "\"";
    out << "]";
    out << ", \"topology\": \"" << kTopos[rng.nextInt(0, 4)] << "\"";
    out << ", \"capacity\": [";
    const int ncaps = rng.nextInt(1, 3);
    for (int c = 0; c < ncaps; ++c)
        out << (c ? ", " : "") << rng.nextInt(10, 24);
    out << "]";
    if (rng.nextBool()) {
        out << ", \"gate\": [\"" << kGates[rng.nextInt(0, 3)] << "\"";
        if (rng.nextBool())
            out << ", \"" << kGates[rng.nextInt(0, 3)] << "\"";
        out << "]";
    }
    if (rng.nextBool())
        out << ", \"reorder\": [\"GS\", \"IS\"]";
    if (rng.nextBool())
        out << ", \"buffer\": " << rng.nextInt(0, 3);
    if (rng.nextBool())
        out << ", \"policy\": \""
            << (rng.nextBool() ? "balanced" : "packed") << "\"";
    if (rng.nextBool())
        out << ", \"params\": " << kParams[rng.nextInt(0, 4)];
    if (rng.nextBool())
        out << ", \"options\": {\"decompose_runtime\": true}";
    out << "}]}";
    return out.str();
}

/** Run the points of @p plan at [@p first, @p last) (default: all)
 *  through a fresh engine/runner with @p jobs workers. */
std::vector<SweepPoint>
engineRows(const SweepPlan &plan, int jobs, size_t first = 0,
           size_t last = static_cast<size_t>(-1), size_t batch_size = 3)
{
    SweepEngine engine(jobs);
    SweepSpecRunner runner(engine);
    std::vector<SweepPoint> rows;
    size_t next = first;
    runner.run(plan, indexRange(first, std::min(last, plan.size())),
               [&](size_t index, const SweepPoint &p) {
                   EXPECT_EQ(index, next++);
                   rows.push_back(p);
               },
               {}, batch_size);
    return rows;
}

TEST_F(SweepSpecDifferential, EngineMatchesDirectAndShardsCompose)
{
    Rng rng(0xd1ffULL);
    for (int grid = 0; grid < 30; ++grid) {
        const std::string text = randomGridText(rng);
        const SweepPlan plan = parseSweepPlan(text, "diff", *dir_);
        ASSERT_GT(plan.size(), 0u) << text;

        // Direct path: lower and evaluate every point independently,
        // with no engine, no caches, no batching.
        std::vector<SweepPoint> direct;
        for (size_t i = 0; i < plan.size(); ++i) {
            const PlannedPoint point = plan.point(i);
            const Circuit circuit =
                point.qasmPath.empty()
                    ? makeBenchmark(point.application)
                    : qasm::parseFile(point.qasmPath);
            SweepPoint row;
            row.application = point.application;
            row.design = point.design;
            row.result =
                runToolflow(circuit, point.design, point.options);
            direct.push_back(std::move(row));
        }

        const std::vector<SweepPoint> serial = engineRows(plan, 1);
        const std::vector<SweepPoint> parallel = engineRows(plan, 4);
        ASSERT_EQ(serial.size(), direct.size()) << text;
        ASSERT_EQ(parallel.size(), direct.size()) << text;
        for (size_t i = 0; i < direct.size(); ++i) {
            const std::string what = "grid " + std::to_string(grid) +
                                     " point " + std::to_string(i) +
                                     "\n" + text;
            expectBitIdentical(serial[i], direct[i], what);
            expectBitIdentical(parallel[i], direct[i], what);
        }

        // Shard union 0/2 then 1/2 must equal the unsharded run.
        const auto [a_first, a_last] = shardRange(plan.size(), 0, 2);
        const auto [b_first, b_last] = shardRange(plan.size(), 1, 2);
        EXPECT_EQ(a_first, 0u);
        EXPECT_EQ(a_last, b_first);
        EXPECT_EQ(b_last, plan.size());
        std::vector<SweepPoint> unionRows =
            engineRows(plan, 2, a_first, a_last);
        for (const SweepPoint &p : engineRows(plan, 2, b_first, b_last))
            unionRows.push_back(p);
        ASSERT_EQ(unionRows.size(), direct.size()) << text;
        for (size_t i = 0; i < direct.size(); ++i)
            expectBitIdentical(unionRows[i], direct[i],
                               "shard union point " +
                                   std::to_string(i) + "\n" + text);
    }
}

TEST_F(SweepSpecDifferential, BuiltinAppsMatchDirectToo)
{
    // One grid over a paper-scale builtin exercises the runner's
    // per-application lowering against direct in-place lowering.
    const SweepPlan plan = parseSweepPlan(R"({
        "name": "builtin",
        "sweeps": [{
            "apps": ["bv"],
            "capacity": [14, 22],
            "gate": ["FM", "PM"]
        }]
    })");
    std::vector<SweepPoint> direct;
    for (size_t i = 0; i < plan.size(); ++i) {
        const PlannedPoint point = plan.point(i);
        SweepPoint row;
        row.application = point.application;
        row.design = point.design;
        row.result = runToolflow(makeBenchmark(point.application),
                                 point.design, point.options);
        direct.push_back(std::move(row));
    }
    const std::vector<SweepPoint> engine = engineRows(plan, 4);
    ASSERT_EQ(engine.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i)
        expectBitIdentical(engine[i], direct[i],
                           "builtin point " + std::to_string(i));
}

TEST(SweepSpecRunner, LowersEachApplicationOnce)
{
    SweepEngine engine(1);
    SweepSpecRunner runner(engine);
    PlannedPoint point;
    point.application = "bv";
    const auto first = runner.circuitFor(point);
    point.design.trapCapacity = 14;
    const auto second = runner.circuitFor(point);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(first->size(),
              decomposeToNative(makeBenchmark("bv")).size());
}

TEST_F(SweepSpecDifferential, ResumeSkipEmitsTheSuffix)
{
    const SweepPlan plan = parseSweepPlan(R"({
        "name": "resume",
        "sweeps": [{"apps": ["qasm:qft8.qasm"], "capacity": [10, 12, 14]}]
    })", "resume", *dir_);
    const std::vector<SweepPoint> all = engineRows(plan, 1);
    const std::vector<SweepPoint> tail = engineRows(plan, 1, /*first=*/2);
    ASSERT_EQ(all.size(), 3u);
    ASSERT_EQ(tail.size(), 1u);
    expectBitIdentical(tail[0], all[2], "resume suffix");
}

} // namespace
} // namespace qccd
