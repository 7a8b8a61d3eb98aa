/**
 * @file
 * Tests for the qccd_lint artifact analyzer (core/lint.hpp): every
 * documented diagnostic code is pinned against a minimal fixture, the
 * cross-artifact checks are exercised through lintArtifacts over a
 * temp tree, and fuzzed/mutated artifacts must never make the linter
 * throw — diagnostics are its only failure channel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/export.hpp"
#include "core/lint.hpp"
#include "core/sweep_spec.hpp"

namespace qccd
{
namespace
{

LintReport
lintSpec(const std::string &text)
{
    LintReport report;
    lintSweepText(text, "spec", "", report);
    return report;
}

/** The first diagnostic carrying @p code, or nullptr. */
const LintDiagnostic *
diag(const LintReport &report, const std::string &code)
{
    for (const LintDiagnostic &d : report.diagnostics)
        if (d.code == code)
            return &d;
    return nullptr;
}

::testing::AssertionResult
hasCode(const LintReport &report, const std::string &code)
{
    if (diag(report, code) != nullptr)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "no diagnostic [" << code << "] in:\n"
           << report.toString();
}

// ---------------------------------------------------------------------
// Pinned diagnostics: each documented code fires on a minimal fixture.
// ---------------------------------------------------------------------

TEST(LintSweep, ParseErrorIsPositionedDiagnostic)
{
    const LintReport report = lintSpec("{\"name\": \"x\",\n  !}");
    ASSERT_TRUE(hasCode(report, "parse"));
    const LintDiagnostic &d = *diag(report, "parse");
    EXPECT_EQ(d.origin, "spec");
    EXPECT_EQ(d.line, 2);
    EXPECT_EQ(d.column, 3);
    EXPECT_FALSE(report.clean());
}

TEST(LintSweep, UnknownKeysAtBothLevels)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"frobnicate\": 1,\n"
        " \"sweeps\": [{\"apps\": [\"qft\"], \"colour\": 3}]}");
    ASSERT_TRUE(hasCode(report, "unknown-key"));
    // Both the spec-level and the grid-level unknown key are reported
    // in one pass — the linter does not stop at the first finding.
    size_t unknown = 0;
    for (const LintDiagnostic &d : report.diagnostics)
        unknown += d.code == "unknown-key" ? 1 : 0;
    EXPECT_EQ(unknown, 2u);
}

TEST(LintSweep, UnknownOptionAndParam)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"qft\"],"
        " \"options\": {\"turbo\": true},"
        " \"params\": {\"warp_factor\": 9}}]}");
    EXPECT_TRUE(hasCode(report, "unknown-option"));
    ASSERT_TRUE(hasCode(report, "unknown-param"));
    // The parser's message, listing the known keys.
    EXPECT_NE(diag(report, "unknown-param")
                  ->message.find("(known: one_qubit_us, measure_us,"),
              std::string::npos)
        << diag(report, "unknown-param")->message;
}

TEST(LintSweep, BadValueKinds)
{
    const LintReport report = lintSpec(
        "{\"name\": 7, \"sweeps\": [{\"apps\": [\"qft\"],"
        " \"capacity\": \"big\"}]}");
    EXPECT_TRUE(hasCode(report, "bad-kind"));
    // Numbers out of the target type's range keep their codes (and are
    // rejected before any narrowing cast, which would be undefined).
    const std::pair<const char *, const char *> out_of_range[] = {
        {"\"sweeps\": [{\"apps\": \"qft\", \"capacity\": [1e10]}]",
         "bad-kind"},
        {"\"sweeps\": [{\"apps\": \"qft\","
         " \"options\": {\"point_timeout_ms\": 1e12}}]",
         "bad-kind"},
        // Integer knobs, typed by the knob table.
        {"\"sweeps\": [{\"apps\": \"qft\","
         " \"params\": {\"buffer_slots\": 2.5}}]",
         "bad-kind"},
        {"\"sweeps\": [{\"apps\": \"qft\","
         " \"params\": {\"buffer_slots\": 1e10}}]",
         "bad-kind"},
        {"\"search\": {\"seed\": -1}, \"sweeps\": [{\"apps\": \"qft\"}]",
         "bad-search"},
        {"\"search\": {\"seed\": 1e30}, \"sweeps\": [{\"apps\": \"qft\"}]",
         "bad-search"},
    };
    for (const auto &[members, code] : out_of_range) {
        SweepLintSummary summary;
        LintReport bad;
        lintSweepText(std::string("{\"name\": \"x\", ") + members + "}",
                      "spec", "", bad, &summary);
        EXPECT_TRUE(hasCode(bad, code)) << members;
        EXPECT_EQ(bad.errorCount(), 1u) << bad.toString();
    }
}

TEST(LintSweep, EmptyAxisIsUnreachable)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"qft\"],"
        " \"capacity\": []}]}");
    ASSERT_TRUE(hasCode(report, "empty-axis"));
    EXPECT_NE(diag(report, "empty-axis")->message.find("cross-product"),
              std::string::npos);
}

TEST(LintSweep, DuplicateAxisValueIsWarningOnly)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"qft\"],"
        " \"capacity\": [14, 18, 14]}]}");
    ASSERT_TRUE(hasCode(report, "duplicate-axis-value"));
    EXPECT_EQ(diag(report, "duplicate-axis-value")->severity,
              LintSeverity::Warning);
    EXPECT_TRUE(report.clean()) << report.toString();
}

TEST(LintSweep, UnknownNamesAcrossAxes)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"nonesuch\"],"
        " \"gate\": \"ZZ\", \"reorder\": \"XY\","
        " \"policy\": \"fancy\"}]}");
    EXPECT_TRUE(hasCode(report, "unknown-app"));
    EXPECT_TRUE(hasCode(report, "unknown-gate"));
    EXPECT_TRUE(hasCode(report, "unknown-reorder"));
    EXPECT_TRUE(hasCode(report, "unknown-policy"));
    EXPECT_EQ(report.errorCount(), 4u);
}

TEST(LintSweep, BadTopologyAndMissingFiles)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": ["
        "{\"apps\": [\"qft\"], \"topology\": \"hexagon:3\"},"
        "{\"apps\": [\"qasm:/nonexistent/f.qasm\"],"
        " \"topology\": \"topo:/nonexistent/d.topo\"}]}");
    EXPECT_TRUE(hasCode(report, "bad-topology"));
    size_t missing = 0;
    for (const LintDiagnostic &d : report.diagnostics)
        missing += d.code == "missing-file" ? 1 : 0;
    EXPECT_EQ(missing, 2u) << report.toString();
}

TEST(LintSweep, CapacityAndBufferBounds)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"qft\"],"
        " \"capacity\": 1, \"buffer\": -1}]}");
    EXPECT_TRUE(hasCode(report, "bad-capacity"));
    EXPECT_TRUE(hasCode(report, "bad-buffer"));
}

TEST(LintSweep, ParamsOutsideTheirModelRange)
{
    // Each value is checked on its own; a rejected value leaves the
    // axis with nothing after it (no empty-axis cascade).
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": \"qft\",\n"
        " \"params\": [{\"kappa\": -1}, {\"buffer_slots\": -3},"
        " {\"recool_factor\": 2}]}]}");
    std::vector<const LintDiagnostic *> bad;
    for (const LintDiagnostic &d : report.diagnostics)
        if (d.code == "bad-param")
            bad.push_back(&d);
    ASSERT_EQ(bad.size(), 3u) << report.toString();
    EXPECT_EQ(report.errorCount(), 3u) << report.toString();
    const std::pair<int, const char *> want[] = {
        {23, "parameter 'kappa' must be non-negative"},
        {45, "parameter 'buffer_slots' must be non-negative"},
        {68, "parameter 'recool_factor' must be in (0, 1]"}};
    for (size_t i = 0; i < bad.size(); ++i) {
        EXPECT_EQ(bad[i]->line, 2) << i;
        EXPECT_EQ(bad[i]->column, want[i].first) << i;
        EXPECT_EQ(bad[i]->message, want[i].second) << i;
    }
}

TEST(LintSweep, GridPastExpansionCapIsFlagged)
{
    // 1100 x 1000 > kMaxSweepPoints (2^20): flagged statically, no
    // expansion attempted.
    std::ostringstream spec;
    spec << "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"qft\"],"
            " \"capacity\": [";
    for (int i = 0; i < 1100; ++i)
        spec << (i ? "," : "") << 2 + i;
    spec << "], \"buffer\": [";
    for (int i = 0; i < 1000; ++i)
        spec << (i ? "," : "") << i;
    spec << "]}]}";
    EXPECT_TRUE(hasCode(lintSpec(spec.str()), "grid-too-large"));
}

TEST(LintSweep, FitAnalysisAgainstDeviceCapacity)
{
    // qft is 64 qubits. linear:2 at capacity 4 holds 8 ions: error.
    // linear:6 at capacity 12 holds 72, but 6 traps x 2 buffer slots
    // leaves 60: fits only by shrinking the buffer — warning.
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": ["
        "{\"apps\": [\"qft\"], \"topology\": \"linear:2\","
        " \"capacity\": 4},"
        "{\"apps\": [\"qft\"], \"topology\": \"linear:6\","
        " \"capacity\": 12}]}");
    ASSERT_TRUE(hasCode(report, "app-does-not-fit"));
    ASSERT_TRUE(hasCode(report, "tight-fit"));
    EXPECT_EQ(diag(report, "tight-fit")->severity,
              LintSeverity::Warning);
    EXPECT_EQ(report.errorCount(), 1u) << report.toString();

    // A grid that names no topology runs on the default linear:6,
    // which holds 24 ions at capacity 4: the same error.
    const LintReport fallback = lintSpec(
        "{\"name\": \"x\", \"sweeps\": ["
        "{\"apps\": \"qft\", \"capacity\": 4}]}");
    ASSERT_TRUE(hasCode(fallback, "app-does-not-fit"))
        << fallback.toString();
    EXPECT_NE(diag(fallback, "app-does-not-fit")
                  ->message.find("'linear:6' at capacity 4"),
              std::string::npos)
        << fallback.toString();
    EXPECT_EQ(fallback.errorCount(), 1u) << fallback.toString();

    // The buffer is the least a grid runs with, "params" included: at
    // 0 buffer slots the same device holds qft with nothing to shrink.
    for (const char *params : {"{\"buffer_slots\": 0}",
                               "[{\"buffer_slots\": 3},"
                               " {\"buffer_slots\": 0}]"}) {
        const LintReport slots = lintSpec(
            std::string("{\"name\": \"x\", \"sweeps\": ["
                        "{\"apps\": \"qft\", \"topology\": \"linear:6\","
                        " \"capacity\": 12, \"params\": ") +
            params + "}]}");
        EXPECT_EQ(diag(slots, "tight-fit"), nullptr) << slots.toString();
        EXPECT_TRUE(slots.clean()) << slots.toString();
    }
}

TEST(LintSweep, CleanSpecExpandsForCrossChecks)
{
    SweepLintSummary summary;
    LintReport report;
    lintSweepText("{\"name\": \"tiny\", \"sweeps\": [{"
                  "\"apps\": [\"qft\", \"bv\"],"
                  " \"capacity\": [14, 18, 22]}]}",
                  "spec", "", report, &summary);
    EXPECT_TRUE(report.clean()) << report.toString();
    EXPECT_TRUE(summary.expanded);
    EXPECT_EQ(summary.name, "tiny");
    EXPECT_EQ(summary.points, 6u);
}

TEST(LintTopo, ParseAndGraphErrors)
{
    LintReport report;
    lintTopoText("trap a\ntrap a\n", "dev.topo", report);
    ASSERT_TRUE(hasCode(report, "topo-parse"));
    EXPECT_EQ(diag(report, "topo-parse")->line, 2);

    LintReport graph;
    lintTopoText("trap a\ntrap b\n", "dev.topo", graph);
    EXPECT_TRUE(hasCode(graph, "topo-graph"));
}

TEST(LintGolden, HeaderRowAndNumberChecks)
{
    const std::string header = sweepCsvHeader();

    LintReport drift;
    lintGoldenText("app,time\nqft,1\n", "g.csv", drift);
    EXPECT_TRUE(hasCode(drift, "golden-header"));

    LintReport empty;
    lintGoldenText(header + "\n", "g.csv", empty);
    EXPECT_TRUE(hasCode(empty, "golden-empty"));

    LintReport cols;
    lintGoldenText(header + "\nqft,linear:6,22\n", "g.csv", cols);
    EXPECT_TRUE(hasCode(cols, "golden-columns"));

    // A full-width row whose capacity field is not a number.
    std::string row = "qft,linear:6,many";
    for (int i = 3; i < 17; ++i)
        row += ",1";
    LintReport num;
    size_t rows = 0;
    lintGoldenText(header + "\n" + row + "\n", "g.csv", num, &rows);
    ASSERT_TRUE(hasCode(num, "golden-number"));
    EXPECT_EQ(rows, 1u);
}

// ---------------------------------------------------------------------
// Cross-artifact checks through lintArtifacts over a temp tree.
// ---------------------------------------------------------------------

class LintTreeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root_ = std::filesystem::temp_directory_path() /
                ("qccd_lint_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + std::to_string(reinterpret_cast<uintptr_t>(this)));
        std::filesystem::create_directories(root_);
    }

    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(root_, ec);
    }

    void write(const std::string &rel, const std::string &text)
    {
        std::ofstream out(root_ / rel);
        out << text;
    }

    std::string path(const std::string &rel)
    {
        return (root_ / rel).string();
    }

    std::filesystem::path root_;
};

TEST_F(LintTreeTest, CoverageAndRowCountChecks)
{
    const std::string header = sweepCsvHeader();
    std::string row = "qft,linear:6,22";
    for (int i = 3; i < 17; ++i)
        row += ",1";

    // covered: 2 points, golden has 2 rows -> clean.
    write("covered.sweep",
          "{\"name\": \"covered\", \"sweeps\": [{"
          "\"apps\": [\"qft\"], \"capacity\": [14, 18]}]}");
    write("covered.csv", header + "\n" + row + "\n" + row + "\n");
    // uncovered: no golden at all -> missing-golden.
    write("uncovered.sweep",
          "{\"name\": \"uncovered\", \"sweeps\": [{"
          "\"apps\": [\"qft\"]}]}");
    // short: golden exists but has 1 row for 2 points -> golden-rows.
    write("short.sweep",
          "{\"name\": \"short\", \"sweeps\": [{"
          "\"apps\": [\"qft\"], \"capacity\": [14, 18]}]}");
    write("short.csv", header + "\n" + row + "\n");
    // orphan golden no spec produces -> warning only.
    write("orphan.csv", header + "\n" + row + "\n");

    const LintReport report = lintArtifacts({root_.string()});
    EXPECT_TRUE(hasCode(report, "missing-golden"));
    EXPECT_TRUE(hasCode(report, "golden-rows"));
    ASSERT_TRUE(hasCode(report, "golden-orphan"));
    EXPECT_EQ(diag(report, "golden-orphan")->severity,
              LintSeverity::Warning);
    EXPECT_EQ(report.errorCount(), 2u) << report.toString();
    EXPECT_EQ(report.filesChecked, 6);
}

TEST_F(LintTreeTest, NonexistentPathIsDiagnosticNotException)
{
    const LintReport report = lintArtifacts({path("nope.sweep")});
    EXPECT_TRUE(hasCode(report, "missing-file"));
    EXPECT_FALSE(report.clean());
}

TEST_F(LintTreeTest, CommittedTreeArtifactsAreLintClean)
{
    // The repo's own examples/ and golden/ must stay error-free; this
    // is the same gate CI runs via the qccd_lint binary.
    const std::string source_dir = QCCD_LINT_TEST_SOURCE_DIR;
    const std::string examples = source_dir + "/examples";
    const std::string golden = source_dir + "/golden";
    ASSERT_TRUE(std::filesystem::exists(examples));
    ASSERT_TRUE(std::filesystem::exists(golden));
    const LintReport report = lintArtifacts({examples, golden});
    EXPECT_TRUE(report.clean()) << report.toString();
    EXPECT_GE(report.filesChecked, 20);
}

// ---------------------------------------------------------------------
// Fuzz: mutated artifacts must never make the linter throw.
// ---------------------------------------------------------------------

std::string
randomSpecText(Rng &rng)
{
    static const char *kApps[] = {"qft", "bv", "adder", "nonesuch"};
    std::ostringstream out;
    out << "{\"name\": \"fuzz" << rng.nextInt(0, 99)
        << "\", \"sweeps\": [{\"apps\": [\""
        << kApps[rng.nextInt(0, 3)] << "\"]";
    if (rng.nextBool())
        out << ", \"capacity\": [" << rng.nextInt(-2, 30) << "]";
    if (rng.nextBool())
        out << ", \"topology\": \"linear:" << rng.nextInt(0, 8) << "\"";
    if (rng.nextBool())
        out << ", \"params\": {\"heating_k1\": " << rng.nextDouble()
            << "}";
    out << "}]}";
    return out.str();
}

void
mutate(std::string &text, Rng &rng)
{
    const std::string alphabet = "{}[]\",:#.-+eE0123456789abz \n\\\t";
    switch (rng.nextInt(0, 3)) {
      case 0:
        text.resize(rng.nextBelow(text.size() + 1));
        break;
      case 1: {
        const int edits = rng.nextInt(1, 8);
        for (int e = 0; e < edits && !text.empty(); ++e)
            text[rng.nextBelow(text.size())] =
                alphabet[rng.nextBelow(alphabet.size())];
        break;
      }
      case 2: {
        const size_t from = rng.nextBelow(text.size() + 1);
        text.erase(from, rng.nextBelow(text.size() - from + 1));
        break;
      }
      default:
        break; // keep as generated
    }
}

TEST(LintFuzz, MutatedSpecsNeverCrashTheLinter)
{
    Rng rng(0x11177f00dULL);
    int clean = 0;
    for (int iter = 0; iter < 400; ++iter) {
        std::string text = randomSpecText(rng);
        mutate(text, rng);
        LintReport report;
        SweepLintSummary summary;
        // Must not throw; ASSERT_NO_THROW would hide which iteration.
        try {
            lintSweepText(text, "fuzz", "", report, &summary);
        } catch (...) {
            FAIL() << "linter threw on iteration " << iter
                   << " input:\n" << text;
        }
        clean += report.clean() ? 1 : 0;
        // A well-formed report: counts sum, no code is empty.
        EXPECT_EQ(report.errorCount() + report.warningCount(),
                  report.diagnostics.size());
        for (const LintDiagnostic &d : report.diagnostics)
            EXPECT_FALSE(d.code.empty());
    }
    // Unmutated iterations (the default branch) stay clean for valid
    // app names, so both outcomes are exercised.
    EXPECT_GT(clean, 0);
}

// ---------------------------------------------------------------------
// Differential: lint runs the parser's own schema, so the two agree on
// which specs are valid, and on the words and place of the first error.
// ---------------------------------------------------------------------

::testing::AssertionResult
agreesWithParser(const std::string &text, const std::string &origin,
                 const std::string &base_dir = "")
{
    LintReport report;
    lintSweepText(text, origin, base_dir, report);
    const auto first = std::find_if(
        report.diagnostics.begin(), report.diagnostics.end(),
        [](const LintDiagnostic &d) {
            return d.severity == LintSeverity::Error;
        });
    try {
        parseSweepPlan(text, origin, base_dir);
    } catch (const ConfigError &err) {
        if (first == report.diagnostics.end())
            return ::testing::AssertionFailure()
                   << "parser threw '" << err.what()
                   << "' but lint found no error";
        const std::string placed =
            first->origin + ":" + std::to_string(first->line) + ":" +
            std::to_string(first->column) + ": " + first->message;
        if (placed != err.what())
            return ::testing::AssertionFailure()
                   << "parser: " << err.what()
                   << "\nlint:   " << first->toString();
        return ::testing::AssertionSuccess();
    }
    // Accepted: only lint's own checks may find an error.
    static const std::set<std::string> kLintOwn = {
        "missing-file", "bad-topology", "bad-qasm", "app-does-not-fit"};
    for (const LintDiagnostic &d : report.diagnostics)
        if (d.severity == LintSeverity::Error && kLintOwn.count(d.code) == 0)
            return ::testing::AssertionFailure()
                   << "parser accepts, but lint reports " << d.toString();
    return ::testing::AssertionSuccess();
}

TEST(LintParserAgreement, SchemaFixtures)
{
    // SweepSpecParse.SchemaErrorsAreCleanAndPositioned's fixtures.
    const char *fixtures[] = {
        "",
        "{",
        "[1, 2]",
        R"({"sweeps": [{"apps": "qft"}]})",
        R"({"name": "x"})",
        R"({"name": "x", "sweeps": []})",
        R"({"name": "x", "sweeps": [{}]})",
        R"({"name": "a b", "sweeps": [{"apps": "qft"}]})",
        R"({"name": "x", "sweeps": [{"apps": "nonesuch"}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft", "gate": "XX"}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft", "gate": "ZZ"}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft", "widget": 1}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft", "capacity": 1.5}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft", "capacity": "big"}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft", "capacity": [1e10]}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft", "capacity": 1}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft", "buffer": -1}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft",)"
        R"( "params": {"kappa": -1}}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft",)"
        R"( "params": {"buffer_slots": -3}}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft",)"
        R"( "params": {"recool_factor": 2}}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft",)"
        R"( "options": {"point_timeout_ms": 1e12}}]})",
        R"({"name": "x", "search": {"seed": -1}, "sweeps": [{"apps": "qft"}]})",
        R"({"name": "x", "search": {"seed": 1e30}, "sweeps": [{"apps": "qft"}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft", "capacity": []}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft",)"
        R"( "params": {"bogus_knob": 1}}]})",
        R"({"name": "x", "name": "y", "sweeps": [{"apps": "qft"}]})",
        R"({"name": "x", "sweeps": [{"apps": "qft"}]} !)",
        "{\n  \"name\": 7\n}",
    };
    for (const char *text : fixtures)
        EXPECT_TRUE(agreesWithParser(text, "spec")) << text;
}

TEST(LintParserAgreement, BoundsEmptyAxisAndTheSpecWideCap)
{
    for (const char *grid : {R"("capacity": [1, 14])", R"("buffer": -1)",
                             R"("capacity": [])"})
        EXPECT_TRUE(agreesWithParser(
            std::string(R"({"name": "x", "sweeps": [{"apps": "bv", )") +
                grid + "}]}",
            "spec"))
            << grid;

    // 1025 x 512 points: each grid is under the 2^20 cap, both are not.
    std::ostringstream grid;
    grid << R"({"apps": "bv", "capacity": [)";
    for (int i = 0; i < 1025; ++i)
        grid << (i ? "," : "") << 2 + i;
    grid << R"(], "buffer": [)";
    for (int i = 0; i < 512; ++i)
        grid << (i ? "," : "") << i;
    grid << "]}";
    const std::string two = R"({"name": "x", "sweeps": [)" + grid.str() +
                            ", " + grid.str() + "]}";
    EXPECT_TRUE(agreesWithParser(two, "spec"));
    ASSERT_TRUE(hasCode(lintSpec(two), "grid-too-large"));
}

TEST(LintParserAgreement, FuzzCorpus)
{
    // LintFuzz.MutatedSpecsNeverCrashTheLinter's corpus, same seed.
    Rng rng(0x11177f00dULL);
    for (int iter = 0; iter < 400; ++iter) {
        std::string text = randomSpecText(rng);
        mutate(text, rng);
        EXPECT_TRUE(agreesWithParser(text, "fuzz"))
            << "iteration " << iter << ":\n" << text;
    }
}

TEST(LintParserAgreement, CommittedSpecs)
{
    const std::string sweeps =
        std::string(QCCD_LINT_TEST_SOURCE_DIR) + "/examples/sweeps";
    int specs = 0;
    for (const auto &entry : std::filesystem::directory_iterator(sweeps)) {
        if (entry.path().extension() != ".sweep")
            continue;
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        EXPECT_TRUE(agreesWithParser(text.str(), entry.path().string(),
                                     sweeps))
            << entry.path();
        ++specs;
    }
    EXPECT_GE(specs, 10);
}

TEST(LintFuzz, MutatedTopoAndGoldenNeverCrashTheLinter)
{
    Rng rng(0x70b0f00dULL);
    for (int iter = 0; iter < 400; ++iter) {
        std::string topo = "name dev\ntrap a 14\ntrap b\njunction j\n"
                           "edge a j\nedge j b 2\n";
        std::string golden = sweepCsvHeader() + "\nqft,linear:6,22";
        for (int i = 3; i < 17; ++i)
            golden += ",1";
        golden += "\n";
        mutate(topo, rng);
        mutate(golden, rng);
        LintReport report;
        try {
            lintTopoText(topo, "fuzz.topo", report);
            lintGoldenText(golden, "fuzz.csv", report);
        } catch (...) {
            FAIL() << "linter threw on iteration " << iter;
        }
    }
}

} // namespace
} // namespace qccd
