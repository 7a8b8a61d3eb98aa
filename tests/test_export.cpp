/** @file Tests for CSV/JSON sweep export. */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "benchgen/benchgen.hpp"
#include "common/error.hpp"
#include "core/export.hpp"
#include "core/sweep_engine.hpp"

namespace qccd
{
namespace
{

std::vector<SweepPoint>
smallSweep()
{
    // Paper-scale BV has 64 qubits; three traps of 26/30 fit it.
    SweepEngine engine;
    const auto native = SweepEngine::lower(makeBenchmark("bv"));
    return engine.run({{"bv", native, DesignPoint::linear(3, 26), {}},
                       {"bv", native, DesignPoint::linear(3, 30), {}}});
}

TEST(Export, CsvHasHeaderAndOneRowPerPoint)
{
    const auto points = smallSweep();
    const std::string csv = toCsv(points);
    std::istringstream in(csv);
    std::string line;
    int lines = 0;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 1 + static_cast<int>(points.size()));
    EXPECT_EQ(csv.rfind("application,topology,capacity", 0), 0u);
    EXPECT_NE(csv.find("bv,linear:3,26,FM,GS,"), std::string::npos);
}

TEST(Export, TopoFileSpecsExportTheDeviceStem)
{
    // Rows carry the device name, not the machine-local file path.
    SweepPoint point;
    point.application = "bv";
    point.design.topologySpec = "topo:examples/topos/ring6.topo";
    point.design.trapCapacity = 22;
    EXPECT_EQ(point.design.topologyLabel(), "ring6");
    EXPECT_EQ(sweepCsvRow(point).rfind("bv,ring6,22,", 0), 0u);
    EXPECT_NE(sweepJsonRow(point).find("\"topology\": \"ring6\""),
              std::string::npos);
    // Builder specs export verbatim (golden CSV compatibility).
    point.design.topologySpec = "grid:2x3";
    EXPECT_EQ(point.design.topologyLabel(), "grid:2x3");
    EXPECT_NE(sweepCsvRow(point).find("bv,grid:2x3,22,"),
              std::string::npos);
}

TEST(Export, CsvColumnCountConsistent)
{
    const std::string csv = toCsv(smallSweep());
    std::istringstream in(csv);
    std::string line;
    int expected = -1;
    while (std::getline(in, line)) {
        const int commas = static_cast<int>(
            std::count(line.begin(), line.end(), ','));
        if (expected == -1)
            expected = commas;
        EXPECT_EQ(commas, expected) << line;
    }
    EXPECT_EQ(expected, 16); // 17 columns
}

TEST(Export, JsonIsWellFormedEnough)
{
    const std::string json = toJson(smallSweep());
    // Structural sanity: array brackets, balanced braces, both rows.
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 2);
    EXPECT_NE(json.find("\"application\": \"bv\""), std::string::npos);
    EXPECT_NE(json.find("\"capacity\": 26"), std::string::npos);
    EXPECT_NE(json.find("\"capacity\": 30"), std::string::npos);
}

TEST(Export, JsonEscapesUserStrings)
{
    auto points = smallSweep();
    points.resize(1);
    points[0].application = "we\"ird\\app";
    const std::string json = toJson(points);
    EXPECT_NE(json.find("\"application\": \"we\\\"ird\\\\app\""),
              std::string::npos)
        << json;
}

TEST(Export, StreamingWriterMatchesBatchHelpers)
{
    const auto points = smallSweep();
    std::ostringstream csv_stream;
    SweepRowWriter csv(csv_stream, ExportFormat::Csv);
    std::ostringstream json_stream;
    SweepRowWriter json(json_stream, ExportFormat::Json);
    for (const SweepPoint &p : points) {
        csv.write(p);
        json.write(p);
    }
    csv.finish();
    json.finish();
    EXPECT_EQ(csv_stream.str(), toCsv(points));
    EXPECT_EQ(json_stream.str(), toJson(points));
    EXPECT_EQ(csv.rowsWritten(), points.size());
}

TEST(Export, ShardedCsvWritersConcatenate)
{
    const auto points = smallSweep();
    std::ostringstream shard0;
    std::ostringstream shard1;
    SweepRowWriter w0(shard0, ExportFormat::Csv, /*with_header=*/true);
    SweepRowWriter w1(shard1, ExportFormat::Csv, /*with_header=*/false);
    w0.write(points[0]);
    w1.write(points[1]);
    w0.finish();
    w1.finish();
    EXPECT_EQ(shard0.str() + shard1.str(), toCsv(points));
}

TEST(Export, EmptySweepProducesHeaderOnly)
{
    const std::string csv = toCsv({});
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1);
    EXPECT_EQ(toJson({}), "[\n]\n");
}

TEST(Export, WriteTextFileRoundTrips)
{
    const std::string path = ::testing::TempDir() + "/qccd_export.csv";
    writeTextFile("hello,world\n", path);
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "hello,world\n");
    EXPECT_THROW(writeTextFile("x", "/nonexistent/dir/file.csv"),
                 ConfigError);
}

TEST(Export, ReplaceTextFileAtomicLeavesNoTempBehind)
{
    const std::string path = ::testing::TempDir() + "/qccd_atomic.csv";
    writeTextFile("old\n", path);
    replaceTextFileAtomic("new\n", path);
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "new\n");
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    EXPECT_THROW(replaceTextFileAtomic("x", "/nonexistent/dir/f.csv"),
                 ConfigError);
}

TEST(Export, ErrorRowQuotesArbitraryDiagnostics)
{
    SweepPoint point = smallSweep().front();
    point.outcome = PointOutcome::Error;
    point.error = "bad \"thing\",\nwith commas";
    const std::string line = sweepErrorRow(42, point);
    // One line per failure (newlines flattened), quotes doubled, and
    // the leading columns identify the point and its absolute index.
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_EQ(line.rfind("42,bv,linear:3,26,FM,GS,error,", 0), 0u);
    EXPECT_NE(line.find("\"bad \"\"thing\"\", with commas\""),
              std::string::npos);
}

TEST(Export, ErrorRowOutcomesUseTheTaxonomyNames)
{
    SweepPoint point = smallSweep().front();
    point.outcome = PointOutcome::Timeout;
    point.error = "late";
    EXPECT_NE(sweepErrorRow(0, point).find(",timeout,"),
              std::string::npos);
    point.outcome = PointOutcome::Infeasible;
    EXPECT_NE(sweepErrorRow(0, point).find(",infeasible,"),
              std::string::npos);
}

} // namespace
} // namespace qccd
