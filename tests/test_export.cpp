/** @file Tests for CSV/JSON sweep export. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
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

/** JSON escape as the stream-based export wrote it. */
std::string
referenceJsonEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"')
            out += "\\\"";
        else if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else if (c == '\t')
            out += "\\t";
        else if (c == '\r')
            out += "\\r";
        else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

/** The CSV and JSON rows as an ostringstream with precision(12)
 *  formats them: the bytes every golden CSV was written with. */
std::pair<std::string, std::string>
referenceRows(const SweepPoint &p)
{
    const RunResult &r = p.result;
    std::ostringstream csv;
    csv.precision(12);
    csv << p.application << ',' << p.design.topologyLabel() << ','
        << p.design.trapCapacity << ',' << gateImplName(p.design.hw.gateImpl)
        << ',' << reorderMethodName(p.design.hw.reorder) << ','
        << r.totalTime() / kSecondUs << ',' << r.computeOnlyTime / kSecondUs
        << ',' << r.communicationTime() / kSecondUs << ',' << r.fidelity()
        << ',' << r.sim.logFidelity << ',' << r.sim.maxChainEnergy << ','
        << static_cast<long>(r.sim.counts.algorithmMs) << ','
        << static_cast<long>(r.sim.counts.reorderMs) << ','
        << static_cast<long>(r.sim.counts.shuttles) << ','
        << static_cast<long>(r.sim.counts.splits) << ','
        << static_cast<long>(r.sim.counts.merges) << ','
        << static_cast<long>(r.sim.counts.evictions);
    std::ostringstream json;
    json.precision(12);
    json << "{\"application\": \"" << referenceJsonEscape(p.application)
         << "\", \"topology\": \""
         << referenceJsonEscape(p.design.topologyLabel())
         << "\", \"capacity\": " << p.design.trapCapacity
         << ", \"gate\": \"" << gateImplName(p.design.hw.gateImpl)
         << "\", \"reorder\": \"" << reorderMethodName(p.design.hw.reorder)
         << "\", \"time_s\": " << r.totalTime() / kSecondUs
         << ", \"compute_s\": " << r.computeOnlyTime / kSecondUs
         << ", \"comm_s\": " << r.communicationTime() / kSecondUs
         << ", \"fidelity\": " << r.fidelity()
         << ", \"log_fidelity\": " << r.sim.logFidelity
         << ", \"max_energy_quanta\": " << r.sim.maxChainEnergy
         << ", \"ms_gates\": " << static_cast<long>(r.sim.counts.algorithmMs)
         << ", \"reorder_ms\": " << static_cast<long>(r.sim.counts.reorderMs)
         << ", \"shuttles\": " << static_cast<long>(r.sim.counts.shuttles)
         << ", \"splits\": " << static_cast<long>(r.sim.counts.splits)
         << ", \"merges\": " << static_cast<long>(r.sim.counts.merges)
         << ", \"evictions\": " << static_cast<long>(r.sim.counts.evictions)
         << "}";
    return {csv.str(), json.str()};
}

// No golden pins the JSON bytes, and the goldens hold only the values
// the paper's sweeps produce. Both formats must print every double as
// the stream's %.12g did: signed zeros, subnormals, NaN and infinities,
// both sides of the %g switch points (1e-4 and 1e12 at precision 12),
// random bit patterns, and the integer extremes.
TEST(Export, RowsMatchTheStreamFormatterOnEdgeValues)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double denorm = std::numeric_limits<double>::denorm_min();
    const double edges[] = {
        0.0, -0.0, denorm, -denorm, 1.5e-310, -2.2250738585072014e-308,
        std::numeric_limits<double>::min(), nan, -nan, inf, -inf,
        1e-4, std::nextafter(1e-4, 0.0), std::nextafter(1e-4, 1.0),
        -1e-4, 9.999999999995e-5, 9.9999999999949e-5, 1e-5,
        1e12, std::nextafter(1e12, 0.0), std::nextafter(1e12, 2e12),
        999999999999.5, 999999999999.4, -1e12, 1e13, 1e6, 0.1, 1.0 / 3,
        123456789012.0, 1234567890123.0, -987654.321, 2.5,
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max()};
    const int64_t int_edges[] = {0, -1, 1, std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max(),
                                 -9876543210LL, 1LL << 53};

    std::mt19937_64 rng(20261018u);
    const auto pickDouble = [&]() {
        switch (rng() % 3) {
        case 0:
            return edges[rng() % std::size(edges)];
        case 1: // any bit pattern: every exponent, NaN payloads too
            return std::bit_cast<double>(static_cast<uint64_t>(rng()));
        default: // a value of any decimal magnitude
            return std::ldexp(static_cast<double>(rng() >> 11) /
                                  9007199254740992.0,
                              static_cast<int>(rng() % 200) - 100) *
                   (rng() % 2 != 0 ? -1.0 : 1.0);
        }
    };
    const auto pickInt = [&]() {
        return rng() % 2 != 0 ? int_edges[rng() % std::size(int_edges)]
                              : static_cast<int64_t>(rng());
    };

    const std::string labels[] = {"qft", "we\"ird\\app", "tab\there\n",
                                  std::string("ctl\x01\x1f\r", 6), "a,b"};
    for (int i = 0; i < 2000; ++i) {
        SweepPoint p;
        p.application = labels[static_cast<size_t>(i) % std::size(labels)];
        p.design.trapCapacity = static_cast<int>(pickInt());
        p.result.sim.makespan = pickDouble();
        p.result.computeOnlyTime = pickDouble();
        p.result.sim.logFidelity = pickDouble();
        p.result.sim.maxChainEnergy = pickDouble();
        p.result.sim.zeroFidelityOps = i % 7 == 0 ? 1 : 0;
        p.result.sim.counts.algorithmMs = pickInt();
        p.result.sim.counts.reorderMs = pickInt();
        p.result.sim.counts.shuttles = pickInt();
        p.result.sim.counts.splits = pickInt();
        p.result.sim.counts.merges = pickInt();
        p.result.sim.counts.evictions = pickInt();
        const auto [csv, json] = referenceRows(p);
        ASSERT_EQ(sweepCsvRow(p), csv) << "row " << i;
        ASSERT_EQ(sweepJsonRow(p), json) << "row " << i;
    }
}

} // namespace
} // namespace qccd
