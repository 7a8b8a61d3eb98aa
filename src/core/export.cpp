#include "core/export.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/error.hpp"
#include "common/faultpoint.hpp"

namespace qccd
{

namespace
{

/** Shared field extraction so CSV and JSON can never diverge. */
struct Row
{
    std::string application;
    std::string topology;
    int capacity;
    std::string gate;
    std::string reorder;
    double timeS;
    double computeS;
    double commS;
    double fidelity;
    double logFidelity;
    double maxEnergy;
    long msGates;
    long reorderMs;
    long shuttles;
    long splits;
    long merges;
    long evictions;
};

Row
makeRow(const SweepPoint &p)
{
    Row row;
    row.application = p.application;
    row.topology = p.design.topologyLabel();
    row.capacity = p.design.trapCapacity;
    row.gate = gateImplName(p.design.hw.gateImpl);
    row.reorder = reorderMethodName(p.design.hw.reorder);
    row.timeS = p.result.totalTime() / kSecondUs;
    row.computeS = p.result.computeOnlyTime / kSecondUs;
    row.commS = p.result.communicationTime() / kSecondUs;
    row.fidelity = p.result.fidelity();
    row.logFidelity = p.result.sim.logFidelity;
    row.maxEnergy = p.result.sim.maxChainEnergy;
    row.msGates = p.result.sim.counts.algorithmMs;
    row.reorderMs = p.result.sim.counts.reorderMs;
    row.shuttles = p.result.sim.counts.shuttles;
    row.splits = p.result.sim.counts.splits;
    row.merges = p.result.sim.counts.merges;
    row.evictions = p.result.sim.counts.evictions;
    return row;
}

/**
 * One export row under construction. It streams like an ostringstream
 * with precision(12) and formats every number with std::to_chars:
 * doubles as chars_format::general at precision 12, which is the
 * stream's (and printf's) %.12g, integers in decimal. No locale, no
 * stream state, one growing string.
 */
class RowText
{
  public:
    RowText() { text_.reserve(256); }

    RowText &operator<<(std::string_view text)
    {
        text_ += text;
        return *this;
    }
    RowText &operator<<(char c)
    {
        text_ += c;
        return *this;
    }
    RowText &operator<<(double value)
    {
        return number(value, std::chars_format::general, 12);
    }
    RowText &operator<<(long value) { return number(value); }
    RowText &operator<<(int value) { return number(value); }

    std::string str() && { return std::move(text_); }

  private:
    template <typename... Format>
    RowText &number(Format... format)
    {
        // %.12g needs at most 19 bytes ("-1.23456789012e-308"), a long 20.
        char buf[32] = {};
        const std::to_chars_result converted =
            std::to_chars(buf, buf + sizeof buf, format...);
        panicUnless(converted.ec == std::errc{},
                    "export number overflowed its buffer");
        text_.append(buf, converted.ptr);
        return *this;
    }

    std::string text_;
};

/** JSON string escape: application labels and topology specs can carry
 *  arbitrary user text (e.g. a QASM file stem with a quote in it). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace

ExportFormat
exportFormatFromName(const std::string &name)
{
    if (name == "csv")
        return ExportFormat::Csv;
    if (name == "json")
        return ExportFormat::Json;
    throw ConfigError("unknown export format '" + name +
                      "' (expected csv or json)");
}

std::string
sweepCsvHeader()
{
    return "application,topology,capacity,gate,reorder,time_s,"
           "compute_s,comm_s,fidelity,log_fidelity,max_energy_quanta,"
           "ms_gates,reorder_ms,shuttles,splits,merges,evictions";
}

std::string
sweepCsvRow(const SweepPoint &point)
{
    const Row r = makeRow(point);
    RowText out;
    out << r.application << ',' << r.topology << ',' << r.capacity << ','
        << r.gate << ',' << r.reorder << ',' << r.timeS << ','
        << r.computeS << ',' << r.commS << ',' << r.fidelity << ','
        << r.logFidelity << ',' << r.maxEnergy << ',' << r.msGates << ','
        << r.reorderMs << ',' << r.shuttles << ',' << r.splits << ','
        << r.merges << ',' << r.evictions;
    return std::move(out).str();
}

std::string
sweepJsonRow(const SweepPoint &point)
{
    const Row r = makeRow(point);
    RowText out;
    out << "{\"application\": \"" << jsonEscape(r.application)
        << "\", \"topology\": \"" << jsonEscape(r.topology)
        << "\", \"capacity\": " << r.capacity << ", \"gate\": \""
        << r.gate << "\", \"reorder\": \"" << r.reorder
        << "\", \"time_s\": " << r.timeS << ", \"compute_s\": "
        << r.computeS << ", \"comm_s\": " << r.commS
        << ", \"fidelity\": " << r.fidelity
        << ", \"log_fidelity\": " << r.logFidelity
        << ", \"max_energy_quanta\": " << r.maxEnergy
        << ", \"ms_gates\": " << r.msGates << ", \"reorder_ms\": "
        << r.reorderMs << ", \"shuttles\": " << r.shuttles
        << ", \"splits\": " << r.splits << ", \"merges\": "
        << r.merges << ", \"evictions\": " << r.evictions << "}";
    return std::move(out).str();
}

std::string
sweepErrorsHeader()
{
    return "index,application,topology,capacity,gate,reorder,outcome,"
           "error";
}

std::string
sweepErrorRow(size_t index, const SweepPoint &point)
{
    // The diagnostic is arbitrary text (paths, quotes, commas, even
    // newlines from a multi-line invariant report); quote it and keep
    // the sidecar one line per failure so torn-line healing and row
    // counting work on it unchanged.
    std::string quoted = "\"";
    for (const char c : point.error) {
        if (c == '"')
            quoted += "\"\"";
        else if (c == '\n' || c == '\r')
            quoted += ' ';
        else
            quoted += c;
    }
    quoted += '"';

    std::ostringstream out;
    out << index << ',' << point.application << ','
        << point.design.topologyLabel() << ','
        << point.design.trapCapacity << ','
        << gateImplName(point.design.hw.gateImpl) << ','
        << reorderMethodName(point.design.hw.reorder) << ','
        << pointOutcomeName(point.outcome) << ',' << quoted;
    return out.str();
}

SweepRowWriter::SweepRowWriter(std::ostream &out, ExportFormat format,
                               bool with_header, size_t rows_before)
    : out_(out), format_(format), rows_(rows_before)
{
    fatalUnless(rows_before == 0 || format_ == ExportFormat::Csv,
                "only CSV exports can be resumed mid-array");
    if (!with_header)
        return;
    if (format_ == ExportFormat::Csv)
        out_ << sweepCsvHeader() << '\n';
    else
        out_ << "[\n";
    out_.flush();
    fatalUnless(out_.good(), "error writing sweep export header");
}

void
SweepRowWriter::write(const SweepPoint &point)
{
    QCCD_FAULT_POINT("export.row");
    panicUnless(!finished_, "write after SweepRowWriter::finish");
    if (format_ == ExportFormat::Csv) {
        out_ << sweepCsvRow(point) << '\n';
    } else {
        if (rows_ > 0)
            out_ << ",\n";
        out_ << "  " << sweepJsonRow(point);
    }
    ++rows_;
    out_.flush();
    fatalUnless(out_.good(), "error writing sweep export row");
}

void
SweepRowWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (format_ == ExportFormat::Json) {
        out_ << (rows_ > 0 ? "\n]\n" : "]\n");
        out_.flush();
        fatalUnless(out_.good(), "error finishing sweep export");
    }
}

std::string
toCsv(const std::vector<SweepPoint> &points)
{
    std::ostringstream out;
    SweepRowWriter writer(out, ExportFormat::Csv);
    for (const SweepPoint &p : points)
        writer.write(p);
    writer.finish();
    return out.str();
}

std::string
toJson(const std::vector<SweepPoint> &points)
{
    std::ostringstream out;
    SweepRowWriter writer(out, ExportFormat::Json);
    for (const SweepPoint &p : points)
        writer.write(p);
    writer.finish();
    return out.str();
}

void
writeTextFile(const std::string &text, const std::string &path)
{
    std::ofstream out(path);
    if (!out.good())
        throw ConfigError("cannot write file '" + path + "'");
    out << text;
    if (!out.good())
        throw ConfigError("error writing file '" + path + "'");
}

void
replaceTextFileAtomic(const std::string &text, const std::string &path)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out.good())
            throw ConfigError("cannot write file '" + tmp + "'");
        out << text;
        out.flush();
        if (!out.good())
            throw ConfigError("error writing file '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw ConfigError("cannot rename '" + tmp + "' over '" + path + "'");
}

} // namespace qccd
