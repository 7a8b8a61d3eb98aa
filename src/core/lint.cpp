#include "core/lint.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "arch/builders.hpp"
#include "arch/topo_file.hpp"
#include "benchgen/benchgen.hpp"
#include "circuit/qasm/parser.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/design_point.hpp"
#include "core/export.hpp"
#include "core/result_store.hpp"
#include "core/sweep_spec.hpp"
#include "models/params.hpp"

namespace qccd
{

namespace
{

void
addDiag(LintReport &report, LintSeverity severity, std::string code,
        std::string origin, int line, int column, std::string message)
{
    LintDiagnostic diag;
    diag.severity = severity;
    diag.code = std::move(code);
    diag.origin = std::move(origin);
    diag.line = line;
    diag.column = column;
    diag.message = std::move(message);
    report.diagnostics.push_back(std::move(diag));
}

void
addAt(LintReport &report, LintSeverity severity, const char *code,
      const std::string &origin, const JsonValue &value,
      const std::string &message)
{
    addDiag(report, severity, code, origin, value.line, value.column,
            message);
}

/**
 * Convert a positioned ConfigError ("origin:LINE:COL: msg" when it was
 * raised by the JSON/topo machinery for @p origin) into a diagnostic,
 * recovering the position when present.
 */
void
addFromConfigError(LintReport &report, const char *code,
                   const std::string &origin, const std::string &what)
{
    int line = 0;
    int column = 0;
    std::string message = what;
    const std::string prefix = origin + ":";
    if (what.rfind(prefix, 0) == 0) {
        const char *first = what.data() + prefix.size();
        const char *last = what.data() + what.size();
        const auto [colon, lec] = std::from_chars(first, last, line);
        if (lec == std::errc() && colon < last && *colon == ':') {
            const auto [end, cec] =
                std::from_chars(colon + 1, last, column);
            if (cec == std::errc() && end + 2 <= last && end[0] == ':' &&
                end[1] == ' ') {
                message.assign(end + 2, last);
            } else {
                line = 0;
                column = 0;
                // "origin: msg" (no position): strip just the path.
                if (what.size() > prefix.size() + 1 &&
                    what[prefix.size()] == ' ')
                    message = what.substr(prefix.size() + 1);
            }
        } else {
            line = 0;
            column = 0;
            if (what.size() > prefix.size() + 1 &&
                what[prefix.size()] == ' ')
                message = what.substr(prefix.size() + 1);
        }
    }
    addDiag(report, LintSeverity::Error, code, origin, line, column,
            message);
}

std::string
resolveRelative(const std::string &path, const std::string &base_dir)
{
    if (path.empty() || path[0] == '/' || base_dir.empty())
        return path;
    return base_dir + "/" + path;
}

bool
isRegularFile(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(path, ec) && !ec;
}

/** Count of comma-separated fields in @p header. */
size_t
fieldCount(const std::string &line)
{
    return static_cast<size_t>(
               std::count(line.begin(), line.end(), ',')) +
           1;
}

/**
 * qccd_lint's own sweep checks, run over the document after the
 * parser's collecting pass: duplicate axis values, `qasm:`/`topo:`
 * paths that do not resolve, and the fit analysis over each grid's
 * app x device cross-product. A value the parser rejected (a finding
 * at its position) is skipped, so nothing here cascades from one.
 */
class SweepLinter
{
  public:
    SweepLinter(const std::string &origin, const std::string &base_dir,
                const std::set<std::pair<int, int>> &rejected,
                LintReport &report)
        : origin_(origin), baseDir_(base_dir), rejected_(rejected),
          report_(report)
    {
    }

    void checkGrids(const JsonValue &root)
    {
        const JsonValue *sweeps = root.kind == JsonValue::Kind::Object
                                      ? root.find("sweeps")
                                      : nullptr;
        if (sweeps == nullptr || sweeps->kind != JsonValue::Kind::Array)
            return;
        for (const JsonValue &grid : sweeps->items)
            if (grid.kind == JsonValue::Kind::Object)
                checkGrid(grid);
    }

  private:
    void error(const char *code, const JsonValue &value,
               const std::string &msg)
    {
        addAt(report_, LintSeverity::Error, code, origin_, value, msg);
    }

    void warning(const char *code, const JsonValue &value,
                 const std::string &msg)
    {
        addAt(report_, LintSeverity::Warning, code, origin_, value, msg);
    }

    bool rejected(const JsonValue &value) const
    {
        return rejected_.count({value.line, value.column}) != 0;
    }

    /** One value of the fit-relevant axes, with its position. */
    struct Sited
    {
        std::string text;
        int number = 0;
        const JsonValue *value = nullptr;
    };

    struct GridFacts
    {
        std::vector<Sited> apps;       // text = application label
        std::vector<Sited> topologies; // text = resolved topology spec
        std::vector<Sited> capacities; // number = trap capacity
        std::vector<int> buffers;      // "buffer" and "buffer_slots"
    };

    void checkGrid(const JsonValue &grid)
    {
        GridFacts facts;
        for (const auto &[key, value] : grid.members) {
            if (rejected(value))
                continue;
            if (value.kind != JsonValue::Kind::Array) {
                addFact(key, value, facts);
                continue;
            }
            checkDuplicates(key, value);
            for (const JsonValue &item : value.items)
                if (!rejected(item))
                    addFact(key, item, facts);
        }
        if (grid.find("topology") == nullptr) {
            // DesignPoint's default device applies grid-wide.
            facts.topologies.push_back(
                {DesignPoint{}.topologySpec, 0, &grid});
        }
        checkFit(facts);
    }

    void checkDuplicates(const std::string &key, const JsonValue &axis)
    {
        for (size_t i = 0; i < axis.items.size(); ++i) {
            for (size_t j = i + 1; j < axis.items.size(); ++j) {
                const JsonValue &a = axis.items[i];
                const JsonValue &b = axis.items[j];
                if (a.kind != b.kind ||
                    a.kind == JsonValue::Kind::Object)
                    continue;
                const bool same =
                    a.kind == JsonValue::Kind::Number
                        ? a.number == b.number
                        : (a.kind == JsonValue::Kind::String
                               ? a.text == b.text
                               : a.boolean == b.boolean);
                if (same) {
                    warning("duplicate-axis-value", b,
                            "axis \"" + key +
                                "\" repeats a value; the duplicate "
                                "rows carry no information");
                    break;
                }
            }
        }
    }

    /** Record a value the parser accepted, resolving file paths. */
    void addFact(const std::string &key, const JsonValue &value,
                 GridFacts &facts)
    {
        if (key == "apps") {
            const std::string qasm_prefix = "qasm:";
            if (value.text.rfind(qasm_prefix, 0) == 0 &&
                !resolvedFile(value, qasm_prefix))
                return;
            facts.apps.push_back({value.text, 0, &value});
        } else if (key == "topology") {
            const std::string topo_prefix = "topo:";
            if (value.text.rfind(topo_prefix, 0) != 0)
                facts.topologies.push_back({value.text, 0, &value});
            else if (const auto path = resolvedFile(value, topo_prefix))
                facts.topologies.push_back(
                    {topo_prefix + *path, 0, &value});
        } else if (key == "capacity") {
            facts.capacities.push_back(
                {"", static_cast<int>(value.number), &value});
        } else if (key == "buffer") {
            facts.buffers.push_back(static_cast<int>(value.number));
        } else if (key == "params") {
            const JsonValue *slots = value.find("buffer_slots");
            if (slots != nullptr && !rejected(*slots))
                facts.buffers.push_back(static_cast<int>(slots->number));
        }
    }

    /** @p value's path after @p prefix, resolved against the spec's
     *  directory; nullopt, after a finding, when it names no file. */
    std::optional<std::string> resolvedFile(const JsonValue &value,
                                            const std::string &prefix)
    {
        const std::string path =
            resolveRelative(value.text.substr(prefix.size()), baseDir_);
        if (isRegularFile(path))
            return path;
        error("missing-file", value,
              "\"" + prefix + "\" path does not resolve: '" + path + "'");
        return std::nullopt;
    }

    // -- capacity/trap fit analysis ----------------------------------

    /** Qubit count of @p app ("qasm:" or builtin); nullopt after a
     *  diagnostic (bad QASM). */
    std::optional<int> appQubits(const Sited &app)
    {
        const auto cached = qubitCache_.find(app.text);
        if (cached != qubitCache_.end())
            return cached->second;
        std::optional<int> qubits;
        const std::string qasm_prefix = "qasm:";
        try {
            if (app.text.rfind(qasm_prefix, 0) == 0) {
                const std::string path = resolveRelative(
                    app.text.substr(qasm_prefix.size()), baseDir_);
                qubits = qasm::parseFile(path).numQubits();
            } else {
                qubits = makeBenchmark(app.text).numQubits();
            }
        } catch (const QccdError &err) {
            error("bad-qasm", *app.value, err.what());
        }
        qubitCache_.emplace(app.text, qubits);
        return qubits;
    }

    /** Total capacity and trap count of a device, built statically. */
    struct DeviceExtent
    {
        int totalCapacity = 0;
        int traps = 0;
    };

    std::optional<DeviceExtent> deviceExtent(const Sited &topo,
                                             int capacity)
    {
        const auto key = std::make_pair(topo.text, capacity);
        const auto cached = extentCache_.find(key);
        if (cached != extentCache_.end())
            return cached->second;
        std::optional<DeviceExtent> extent;
        const std::string topo_prefix = "topo:";
        try {
            const Topology built =
                topo.text.rfind(topo_prefix, 0) == 0
                    ? loadTopoFile(
                          topo.text.substr(topo_prefix.size()),
                          capacity)
                    : makeFromSpec(topo.text, capacity);
            extent = DeviceExtent{built.totalCapacity(),
                                  built.trapCount()};
        } catch (const QccdError &err) {
            // Reached only for devices whose syntax checked out but
            // whose construction fails (e.g. a broken `.topo` file).
            if (reportedDevices_.insert(topo.text).second)
                error("bad-topology", *topo.value, err.what());
        }
        extentCache_.emplace(key, extent);
        return extent;
    }

    void checkFit(GridFacts &facts)
    {
        if (facts.apps.empty() || facts.topologies.empty())
            return;
        if (facts.capacities.empty()) {
            // DesignPoint's default capacity applies grid-wide.
            facts.capacities.push_back(
                {"", DesignPoint{}.trapCapacity,
                 facts.topologies.front().value});
        }
        const int buffer =
            facts.buffers.empty()
                ? HardwareParams{}.bufferSlots
                : *std::min_element(facts.buffers.begin(),
                                    facts.buffers.end());
        for (const Sited &topo : facts.topologies) {
            for (const Sited &capacity : facts.capacities) {
                const auto extent =
                    deviceExtent(topo, capacity.number);
                if (!extent)
                    continue;
                for (const Sited &app : facts.apps) {
                    const auto qubits = appQubits(app);
                    if (!qubits)
                        continue;
                    const std::string device =
                        "'" + topo.text + "' at capacity " +
                        std::to_string(capacity.number) +
                        " (total capacity " +
                        std::to_string(extent->totalCapacity) + ")";
                    if (*qubits > extent->totalCapacity) {
                        error("app-does-not-fit", *app.value,
                              "application '" + app.text + "' (" +
                                  std::to_string(*qubits) +
                                  " qubits) cannot fit device " +
                                  device);
                    } else if (*qubits > extent->totalCapacity -
                                             buffer * extent->traps) {
                        warning("tight-fit", *app.value,
                                "application '" + app.text + "' (" +
                                    std::to_string(*qubits) +
                                    " qubits) only fits device " +
                                    device + " by shrinking the " +
                                    std::to_string(buffer) +
                                    " buffer slots per trap");
                    }
                }
            }
        }
    }

    const std::string &origin_;
    const std::string &baseDir_;
    const std::set<std::pair<int, int>> &rejected_;
    LintReport &report_;

    std::map<std::string, std::optional<int>> qubitCache_;
    std::map<std::pair<std::string, int>, std::optional<DeviceExtent>>
        extentCache_;
    std::set<std::string> reportedDevices_;
};

} // namespace

std::string
LintDiagnostic::toString() const
{
    std::ostringstream out;
    out << origin;
    if (line > 0) {
        out << ":" << line;
        if (column > 0)
            out << ":" << column;
    }
    out << ": "
        << (severity == LintSeverity::Error ? "error" : "warning")
        << ": " << message << " [" << code << "]";
    return out.str();
}

size_t
LintReport::errorCount() const
{
    return static_cast<size_t>(std::count_if(
        diagnostics.begin(), diagnostics.end(),
        [](const LintDiagnostic &d) {
            return d.severity == LintSeverity::Error;
        }));
}

size_t
LintReport::warningCount() const
{
    return diagnostics.size() - errorCount();
}

std::string
LintReport::toString() const
{
    std::string out;
    for (const LintDiagnostic &diag : diagnostics) {
        out += diag.toString();
        out += '\n';
    }
    return out;
}

void
lintSweepText(const std::string &text, const std::string &origin,
              const std::string &base_dir, LintReport &report,
              SweepLintSummary *summary)
{
    ++report.filesChecked;
    const size_t before = report.errorCount();
    try {
        // One pass of the parser's own schema reports every finding;
        // lint's checks then run on what it accepted.
        JsonValue document;
        std::vector<SweepSpecFinding> findings;
        const SweepPlan plan =
            parseSweepPlan(text, origin, base_dir, document, findings);
        std::set<std::pair<int, int>> rejected;
        for (SweepSpecFinding &finding : findings) {
            addDiag(report, LintSeverity::Error, finding.code, origin,
                    finding.line, finding.column,
                    std::move(finding.message));
            rejected.emplace(finding.line, finding.column);
        }
        SweepLinter(origin, base_dir, rejected, report)
            .checkGrids(document);
        if (summary != nullptr) {
            summary->name = plan.name;
            summary->points = plan.size();
            summary->expanded = report.errorCount() == before;
        }
    } catch (const std::exception &err) {
        addDiag(report, LintSeverity::Error, "internal", origin, 0, 0,
                std::string("linter failure: ") + err.what());
    }
}

void
lintTopoText(const std::string &text, const std::string &origin,
             LintReport &report)
{
    ++report.filesChecked;
    try {
        static_cast<void>(parseTopo(text, origin,
                                    DesignPoint{}.trapCapacity));
    } catch (const ConfigError &err) {
        const size_t at = report.diagnostics.size();
        addFromConfigError(report, "topo-parse", origin, err.what());
        // Graph-invariant errors (connectivity, dangling junctions)
        // carry no line position; keep them distinguishable.
        if (report.diagnostics[at].line == 0)
            report.diagnostics[at].code = "topo-graph";
    } catch (const std::exception &err) {
        addDiag(report, LintSeverity::Error, "internal", origin, 0, 0,
                std::string("linter failure: ") + err.what());
    }
}

void
lintGoldenText(const std::string &text, const std::string &origin,
               LintReport &report, size_t *rows_out)
{
    ++report.filesChecked;
    if (rows_out != nullptr)
        *rows_out = 0;

    std::istringstream lines(text);
    std::string line;
    int line_no = 0;
    size_t rows = 0;
    const std::string header = sweepCsvHeader();
    const size_t columns = fieldCount(header);
    bool have_header = false;
    while (std::getline(lines, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (!have_header) {
            have_header = true;
            if (line != header)
                addDiag(report, LintSeverity::Error, "golden-header",
                        origin, line_no, 1,
                        "header drifted from sweepCsvHeader(): got \"" +
                            line + "\"");
            continue;
        }
        ++rows;
        if (fieldCount(line) != columns) {
            addDiag(report, LintSeverity::Error, "golden-columns",
                    origin, line_no, 1,
                    "row has " + std::to_string(fieldCount(line)) +
                        " fields, expected " + std::to_string(columns));
            continue;
        }
        // Numeric columns: capacity (index 2, integer) and every
        // metric from time_s onward (indices 5..16, doubles).
        size_t field = 0;
        size_t start = 0;
        while (start <= line.size()) {
            size_t end = line.find(',', start);
            if (end == std::string::npos)
                end = line.size();
            const bool numeric =
                field == 2 || (field >= 5 && field < columns);
            if (numeric) {
                const char *first = line.data() + start;
                const char *last = line.data() + end;
                bool ok = first != last;
                if (ok && field == 2) {
                    int v = 0;
                    const auto [p, ec] =
                        std::from_chars(first, last, v);
                    ok = ec == std::errc() && p == last;
                } else if (ok) {
                    double v = 0;
                    const auto [p, ec] =
                        std::from_chars(first, last, v);
                    ok = ec == std::errc() && p == last;
                }
                if (!ok)
                    addDiag(report, LintSeverity::Error,
                            "golden-number", origin, line_no,
                            static_cast<int>(start) + 1,
                            "field " + std::to_string(field + 1) +
                                " is not numeric: '" +
                                line.substr(start, end - start) + "'");
            }
            ++field;
            start = end + 1;
        }
    }
    if (!have_header) {
        addDiag(report, LintSeverity::Error, "golden-empty", origin, 0,
                0, "file has no header line");
    } else if (rows == 0) {
        addDiag(report, LintSeverity::Error, "golden-empty", origin, 0,
                0, "file has a header but no data rows");
    }
    if (!text.empty() && text.back() != '\n')
        addDiag(report, LintSeverity::Warning, "golden-truncated",
                origin, line_no, 1,
                "file does not end with a newline (torn final row?)");
    if (rows_out != nullptr)
        *rows_out = rows;
}

void
lintCacheBytes(const std::string &bytes, const std::string &origin,
               LintReport &report)
{
    ++report.filesChecked;
    try {
        const ResultStoreScan scan = scanResultStore(bytes);
        if (!scan.magicOk && !scan.headerTorn) {
            addDiag(report, LintSeverity::Error, "cache-magic", origin,
                    0, 0, "not a qccd result cache (bad magic)");
            return;
        }
        if (scan.headerTorn) {
            addDiag(report, LintSeverity::Warning, "cache-torn", origin,
                    0, 0,
                    "truncated header (" +
                        std::to_string(bytes.size()) + " of " +
                        std::to_string(ResultStore::kHeaderSize) +
                        " bytes; the store heals this on open)");
            return;
        }
        if (!scan.versionOk) {
            addDiag(report, LintSeverity::Error, "cache-version",
                    origin, 0, 0,
                    "schema version " + std::to_string(scan.version) +
                        "; this build reads version " +
                        std::to_string(ResultStore::kSchemaVersion) +
                        " (the store refuses this file)");
            return;
        }
        for (const ResultStoreDefect &defect : scan.defects)
            addDiag(report, LintSeverity::Error,
                    defect.reason == "frame" ? "cache-frame"
                                             : "cache-checksum",
                    origin, 0, 0,
                    "corrupt record at offset " +
                        std::to_string(defect.offset) + " (" +
                        std::to_string(defect.length) + " bytes, " +
                        defect.reason +
                        "; the store quarantines this on open)");
        if (scan.truncatedTail)
            addDiag(report, LintSeverity::Warning, "cache-torn", origin,
                    0, 0,
                    "incomplete final record at offset " +
                        std::to_string(scan.tornTailOffset) +
                        " (torn append; the store heals this on open)");
        // A structurally valid payload can still decode to nothing if
        // the schema drifts; surface that rather than claim clean.
        for (const ScannedResultRecord &record : scan.records) {
            Digest128 key;
            RunResult result;
            if (!ResultStore::decodeRecordPayload(record.payload, &key,
                                                  &result))
                addDiag(report, LintSeverity::Error, "cache-decode",
                        origin, 0, 0,
                        "record at offset " +
                            std::to_string(record.offset) +
                            " does not decode as a version-" +
                            std::to_string(ResultStore::kSchemaVersion) +
                            " payload");
        }
    } catch (const std::exception &err) {
        addDiag(report, LintSeverity::Error, "internal", origin, 0, 0,
                std::string("linter failure: ") + err.what());
    }
}

namespace
{

/** Read a whole file; diagnostic (not exception) on failure. */
std::optional<std::string>
slurp(const std::string &path, LintReport &report)
{
    std::ifstream in(path);
    if (!in.good()) {
        addDiag(report, LintSeverity::Error, "unreadable", path, 0, 0,
                "cannot read file");
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad()) {
        addDiag(report, LintSeverity::Error, "unreadable", path, 0, 0,
                "error while reading file");
        return std::nullopt;
    }
    return text.str();
}

std::string
dirnameOf(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

std::string
stemOf(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    const size_t start = slash == std::string::npos ? 0 : slash + 1;
    size_t end = path.find_last_of('.');
    if (end == std::string::npos || end <= start)
        end = path.size();
    return path.substr(start, end - start);
}

} // namespace

LintReport
lintArtifacts(const std::vector<std::string> &paths)
{
    LintReport report;
    std::vector<std::string> sweeps;
    std::vector<std::string> topos;
    std::vector<std::string> csvs;
    std::vector<std::string> caches;

    const auto classify = [&](const std::string &path) {
        if (path.size() >= 6 &&
            path.compare(path.size() - 6, 6, ".sweep") == 0)
            sweeps.push_back(path);
        else if (path.size() >= 5 &&
                 path.compare(path.size() - 5, 5, ".topo") == 0)
            topos.push_back(path);
        else if (path.size() >= 4 &&
                 path.compare(path.size() - 4, 4, ".csv") == 0)
            csvs.push_back(path);
        else if (path.size() >= 7 &&
                 path.compare(path.size() - 7, 7, ".qcache") == 0)
            caches.push_back(path);
        else
            addDiag(report, LintSeverity::Warning, "skipped", path, 0,
                    0,
                    "not a lintable artifact (expected .sweep, .topo, "
                    ".csv or .qcache)");
    };

    for (const std::string &arg : paths) {
        std::error_code ec;
        const auto status = std::filesystem::status(arg, ec);
        if (ec || !std::filesystem::exists(status)) {
            addDiag(report, LintSeverity::Error, "missing-file", arg, 0,
                    0, "path does not exist");
            continue;
        }
        if (std::filesystem::is_directory(status)) {
            std::vector<std::string> found;
            for (const auto &entry :
                 std::filesystem::recursive_directory_iterator(
                     arg, std::filesystem::directory_options::
                              skip_permission_denied, ec)) {
                if (!entry.is_regular_file(ec))
                    continue;
                const std::string path = entry.path().string();
                if ((path.size() >= 6 &&
                     path.compare(path.size() - 6, 6, ".sweep") == 0) ||
                    (path.size() >= 5 &&
                     path.compare(path.size() - 5, 5, ".topo") == 0) ||
                    (path.size() >= 4 &&
                     path.compare(path.size() - 4, 4, ".csv") == 0) ||
                    (path.size() >= 7 &&
                     path.compare(path.size() - 7, 7, ".qcache") == 0))
                    found.push_back(path);
            }
            // Deterministic order regardless of directory enumeration.
            std::sort(found.begin(), found.end());
            for (const std::string &path : found)
                classify(path);
        } else {
            classify(arg);
        }
    }

    std::vector<SweepLintSummary> summaries;
    for (const std::string &path : sweeps) {
        if (const auto text = slurp(path, report)) {
            SweepLintSummary summary;
            lintSweepText(*text, path, dirnameOf(path), report,
                          &summary);
            summaries.push_back(std::move(summary));
        }
    }
    for (const std::string &path : topos)
        if (const auto text = slurp(path, report))
            lintTopoText(*text, path, report);

    for (const std::string &path : caches)
        if (const auto text = slurp(path, report))
            lintCacheBytes(*text, path, report);

    std::map<std::string, std::pair<std::string, size_t>> goldenRows;
    for (const std::string &path : csvs) {
        if (const auto text = slurp(path, report)) {
            size_t rows = 0;
            lintGoldenText(*text, path, report, &rows);
            // Search-report audits (<name>.search.csv) share the
            // sweep CSV schema and get the full header/row lint, but
            // they cover only the points the search really evaluated
            // — they are not goldens and must not trip the row-count
            // or orphan cross-checks.
            const std::string stem = stemOf(path);
            const bool searchReport =
                stem.size() > 7 &&
                stem.compare(stem.size() - 7, 7, ".search") == 0;
            if (!searchReport)
                goldenRows.emplace(stem, std::make_pair(path, rows));
        }
    }

    // Cross-artifact coverage: only meaningful when the invocation
    // sees both sides (e.g. `qccd_lint examples/ golden/`).
    if (!summaries.empty() && !goldenRows.empty()) {
        std::set<std::string> producedStems;
        for (const SweepLintSummary &summary : summaries) {
            if (!summary.expanded || summary.name.empty())
                continue;
            producedStems.insert(summary.name);
            const auto golden = goldenRows.find(summary.name);
            if (golden == goldenRows.end()) {
                addDiag(report, LintSeverity::Error, "missing-golden",
                        summary.name, 0, 0,
                        "spec \"" + summary.name +
                            "\" has no covering golden CSV");
                continue;
            }
            if (golden->second.second != summary.points)
                addDiag(report, LintSeverity::Error, "golden-rows",
                        golden->second.first, 0, 0,
                        "golden has " +
                            std::to_string(golden->second.second) +
                            " data rows but spec \"" + summary.name +
                            "\" expands to " +
                            std::to_string(summary.points) +
                            " points");
        }
        for (const auto &[stem, golden] : goldenRows)
            if (producedStems.count(stem) == 0)
                addDiag(report, LintSeverity::Warning, "golden-orphan",
                        golden.first, 0, 0,
                        "no linted .sweep spec produces this golden");
    }
    return report;
}

} // namespace qccd
