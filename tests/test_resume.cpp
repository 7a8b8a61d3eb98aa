/**
 * @file
 * Tests for crash-safe resume (core/resume.hpp): torn-line healing is
 * atomic and lossless, and every recovered row — data CSV and .errors
 * sidecar alike — is verified against the shard's planned points, so a
 * header-compatible checkpoint from the wrong sweep is refused instead
 * of silently merged.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "core/export.hpp"
#include "core/resume.hpp"
#include "core/sweep_spec.hpp"

namespace qccd
{
namespace
{

std::string
pathIn(const std::string &name)
{
    return ::testing::TempDir() + "resume_" + name;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::trunc);
    out << content;
    ASSERT_TRUE(out.good());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** Four points: qft/bv at capacities 14 and 18 (apps vary slowest). */
SweepPlan
plannedPoints()
{
    return parseSweepPlan(R"({
        "name": "resume",
        "sweeps": [{"apps": ["qft", "bv"], "capacity": [14, 18]}]
    })");
}

/** A data row whose identifying prefix matches @p app/@p capacity; the
 *  metric columns are irrelevant to resume validation. */
std::string
row(const std::string &app, int capacity)
{
    return app + ",linear:6," + std::to_string(capacity) +
           ",FM,GS,0,0,0,0,0,0,0,0,0,0,0,0";
}

std::string
sidecarRow(size_t index, const std::string &app, int capacity)
{
    return std::to_string(index) + "," + app + ",linear:6," +
           std::to_string(capacity) + ",FM,GS,error,\"boom\"";
}

TEST(LoadHealedLines, MissingFileIsEmptyNotAnError)
{
    bool existed = true;
    EXPECT_EQ(loadHealedLines(pathIn("missing.csv"), &existed), "");
    EXPECT_FALSE(existed);
}

TEST(LoadHealedLines, TornFinalLineIsDroppedAndTheFileRewritten)
{
    const std::string path = pathIn("torn.csv");
    writeFile(path, "header\nrow1\npartial-ro");
    bool existed = false;
    const std::string healed = loadHealedLines(path, &existed);
    EXPECT_TRUE(existed);
    EXPECT_EQ(healed, "header\nrow1\n");
    // The heal is durable and atomic: the rewritten file matches what
    // was returned, and no temp file is left behind.
    EXPECT_EQ(readFile(path), "header\nrow1\n");
    EXPECT_FALSE(fileExists(path + ".tmp"));
}

TEST(LoadHealedLines, CompleteFileIsLeftUntouched)
{
    const std::string path = pathIn("whole.csv");
    writeFile(path, "header\nrow1\n");
    bool existed = false;
    EXPECT_EQ(loadHealedLines(path, &existed), "header\nrow1\n");
    EXPECT_FALSE(fileExists(path + ".tmp"));
}

TEST(LoadHealedLines, FileWithOnlyATornLineHealsToEmpty)
{
    const std::string path = pathIn("alltorn.csv");
    writeFile(path, "headerwithoutnewline");
    bool existed = false;
    EXPECT_EQ(loadHealedLines(path, &existed), "");
    EXPECT_EQ(readFile(path), "");
}

TEST(AnalyzeResume, FreshOutputMeansNothingDone)
{
    const ResumeState state = analyzeResume(
        pathIn("fresh.csv"), true, false, plannedPoints(), 0, 4);
    EXPECT_EQ(state.done, 0u);
    EXPECT_EQ(state.csvRows, 0u);
    EXPECT_TRUE(state.csvEmpty);
}

TEST(AnalyzeResume, ValidPrefixIsCountedAndVerified)
{
    const std::string path = pathIn("valid.csv");
    writeFile(path, sweepCsvHeader() + "\n" + row("qft", 14) + "\n" +
                        row("qft", 18) + "\n");
    const ResumeState state =
        analyzeResume(path, true, false, plannedPoints(), 0, 4);
    EXPECT_EQ(state.done, 2u);
    EXPECT_EQ(state.csvRows, 2u);
    EXPECT_FALSE(state.csvEmpty);
    EXPECT_TRUE(state.failedIndices.empty());
}

TEST(AnalyzeResume, WrongHeaderIsRefused)
{
    const std::string path = pathIn("hdr.csv");
    writeFile(path, "app,topo\nqft,linear:6\n");
    EXPECT_THROW(analyzeResume(path, true, false, plannedPoints(), 0, 4),
                 ConfigError);
}

TEST(AnalyzeResume, ForeignRowsAreRefusedNotMerged)
{
    // Header-compatible, but the rows belong to a different sweep.
    const std::string path = pathIn("foreign.csv");
    writeFile(path,
              sweepCsvHeader() + "\n" + row("supremacy", 22) + "\n");
    EXPECT_THROW(analyzeResume(path, true, false, plannedPoints(), 0, 4),
                 ConfigError);
}

TEST(AnalyzeResume, WrongShardSliceIsRefused)
{
    // Rows valid for shard 0 do not resume under shard 1's range.
    const SweepPlan plan = plannedPoints();
    const std::string path = pathIn("shard.csv");
    writeFile(path, row("qft", 14) + "\n");
    EXPECT_THROW(analyzeResume(path, false, false, plan, 2, 4),
                 ConfigError);
    // The same rows are fine for the range they came from.
    const ResumeState state = analyzeResume(path, false, false, plan, 0, 2);
    EXPECT_EQ(state.done, 1u);
}

TEST(AnalyzeResume, ShardSidecarHoldsPlanIndices)
{
    // Shard [2, 4): bv at 14 succeeded, bv at 18 (plan index 3) failed.
    const std::string path = pathIn("shardside.csv");
    writeFile(path, row("bv", 14) + "\n");
    writeFile(path + ".errors", sweepErrorsHeader() + "\n" +
                                    sidecarRow(3, "bv", 18) + "\n");
    const ResumeState state =
        analyzeResume(path, false, true, plannedPoints(), 2, 4);
    EXPECT_EQ(state.done, 2u);
    ASSERT_EQ(state.failedIndices.size(), 1u);
    EXPECT_EQ(state.failedIndices[0], 3u);
    // Plan index 1 belongs to shard [0, 2), not to this one.
    writeFile(path + ".errors", sweepErrorsHeader() + "\n" +
                                    sidecarRow(1, "qft", 18) + "\n");
    EXPECT_THROW(analyzeResume(path, false, true, plannedPoints(), 2, 4),
                 ConfigError);
}

TEST(AnalyzeResume, MoreRowsThanPlannedIsRefused)
{
    const std::string path = pathIn("overfull.csv");
    std::string content = sweepCsvHeader() + "\n";
    for (int i = 0; i < 5; ++i)
        content += row("qft", 14) + "\n";
    writeFile(path, content);
    EXPECT_THROW(analyzeResume(path, true, false, plannedPoints(), 0, 4),
                 ConfigError);
}

TEST(AnalyzeResume, SidecarRequiresKeepGoing)
{
    const std::string path = pathIn("kg.csv");
    writeFile(path, sweepCsvHeader() + "\n");
    writeFile(path + ".errors",
              sweepErrorsHeader() + "\n" + sidecarRow(0, "qft", 14) +
                  "\n");
    EXPECT_THROW(analyzeResume(path, true, false, plannedPoints(), 0, 4),
                 ConfigError);
    const ResumeState state =
        analyzeResume(path, true, true, plannedPoints(), 0, 4);
    EXPECT_EQ(state.done, 1u);
    EXPECT_EQ(state.csvRows, 0u);
    ASSERT_EQ(state.failedIndices.size(), 1u);
    EXPECT_EQ(state.failedIndices[0], 0u);
}

TEST(AnalyzeResume, FailuresInterleaveWithRowsInPlannedOrder)
{
    // Point 0 succeeded, point 1 failed, point 2 succeeded.
    const std::string path = pathIn("mix.csv");
    writeFile(path, sweepCsvHeader() + "\n" + row("qft", 14) + "\n" +
                        row("bv", 14) + "\n");
    writeFile(path + ".errors",
              sweepErrorsHeader() + "\n" + sidecarRow(1, "qft", 18) +
                  "\n");
    const ResumeState state =
        analyzeResume(path, true, true, plannedPoints(), 0, 4);
    EXPECT_EQ(state.done, 3u);
    EXPECT_EQ(state.csvRows, 2u);
    ASSERT_EQ(state.failedIndices.size(), 1u);
    EXPECT_EQ(state.failedIndices[0], 1u);
}

TEST(AnalyzeResume, SidecarIdentityMismatchIsRefused)
{
    const std::string path = pathIn("sidemis.csv");
    writeFile(path, sweepCsvHeader() + "\n");
    writeFile(path + ".errors",
              sweepErrorsHeader() + "\n" + sidecarRow(0, "bv", 99) +
                  "\n");
    EXPECT_THROW(analyzeResume(path, true, true, plannedPoints(), 0, 4),
                 ConfigError);
}

TEST(AnalyzeResume, SidecarIndexOutsideTheShardIsRefused)
{
    const std::string path = pathIn("sideoob.csv");
    writeFile(path, sweepCsvHeader() + "\n");
    writeFile(path + ".errors",
              sweepErrorsHeader() + "\n" + sidecarRow(7, "bv", 18) +
                  "\n");
    EXPECT_THROW(analyzeResume(path, true, true, plannedPoints(), 0, 4),
                 ConfigError);
}

TEST(AnalyzeResume, SidecarIndicesMustAscend)
{
    const std::string path = pathIn("sideord.csv");
    writeFile(path, sweepCsvHeader() + "\n");
    writeFile(path + ".errors",
              sweepErrorsHeader() + "\n" + sidecarRow(1, "qft", 18) +
                  "\n" + sidecarRow(0, "qft", 14) + "\n");
    EXPECT_THROW(analyzeResume(path, true, true, plannedPoints(), 0, 4),
                 ConfigError);
}

TEST(AnalyzeResume, FailureRecordedBeyondTheCompletedPrefixIsRefused)
{
    // Sidecar says point 1 failed, but the CSV has no row for point 0:
    // the checkpoint is internally inconsistent.
    const std::string path = pathIn("sidegap.csv");
    writeFile(path, sweepCsvHeader() + "\n");
    writeFile(path + ".errors",
              sweepErrorsHeader() + "\n" + sidecarRow(1, "qft", 18) +
                  "\n");
    EXPECT_THROW(analyzeResume(path, true, true, plannedPoints(), 0, 4),
                 ConfigError);
}

TEST(AnalyzeResume, MalformedSidecarIndexIsRefused)
{
    const std::string path = pathIn("sidebad.csv");
    writeFile(path, sweepCsvHeader() + "\n");
    writeFile(path + ".errors",
              sweepErrorsHeader() + "\nxyz,qft,linear:6,14,FM,GS,"
              "error,\"x\"\n");
    EXPECT_THROW(analyzeResume(path, true, true, plannedPoints(), 0, 4),
                 ConfigError);
}

TEST(AnalyzeResume, TornSidecarLineIsHealedBeforeCounting)
{
    const std::string path = pathIn("sidetorn.csv");
    writeFile(path, sweepCsvHeader() + "\n" + row("qft", 14) + "\n");
    writeFile(path + ".errors", sweepErrorsHeader() + "\n" +
                                    sidecarRow(1, "qft", 18) +
                                    "\n2,bv,linear");
    const ResumeState state =
        analyzeResume(path, true, true, plannedPoints(), 0, 4);
    EXPECT_EQ(state.done, 2u); // the torn failure record is dropped
    EXPECT_EQ(readFile(path + ".errors"),
              sweepErrorsHeader() + "\n" + sidecarRow(1, "qft", 18) +
                  "\n");
}

} // namespace
} // namespace qccd
