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
#include "compiler/mapping.hpp"
#include "core/design_point.hpp"
#include "core/export.hpp"
#include "core/result_store.hpp"
#include "core/sweep_spec.hpp"
#include "models/gate_time.hpp"
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
 * The static sweep-spec walker: reports every schema finding with its
 * document position instead of stopping at the first, then runs the
 * fit analysis over the grid's app x device cross-product.
 */
class SweepLinter
{
  public:
    SweepLinter(const std::string &origin, const std::string &base_dir,
                LintReport &report)
        : origin_(origin), baseDir_(base_dir), report_(report)
    {
    }

    void walk(const JsonValue &root, SweepLintSummary *summary)
    {
        if (root.kind != JsonValue::Kind::Object) {
            error("bad-kind", root,
                  "spec document must be an object, got " +
                      jsonKindName(root.kind));
            return;
        }
        const JsonValue *sweeps = nullptr;
        for (const auto &[key, value] : root.members) {
            if (key == "name") {
                checkName(value, summary);
            } else if (key == "description") {
                expectKind(value, JsonValue::Kind::String,
                           "\"description\"");
            } else if (key == "search") {
                walkSearch(value);
            } else if (key == "sweeps") {
                if (expectKind(value, JsonValue::Kind::Array,
                               "\"sweeps\""))
                    sweeps = &value;
            } else {
                error("unknown-key", value,
                      "unknown spec key \"" + key +
                          "\" (known: name, description, search, "
                          "sweeps)");
            }
        }
        if (root.find("name") == nullptr)
            error("missing-name", root, "spec is missing \"name\"");
        if (sweeps == nullptr || sweeps->items.empty()) {
            if (root.find("sweeps") == nullptr || sweeps != nullptr)
                error("missing-sweeps", root,
                      "spec needs a non-empty \"sweeps\" array");
            return;
        }
        for (const JsonValue &grid : sweeps->items)
            walkGrid(grid);
    }

  private:
    // -- diagnostics --------------------------------------------------
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

    bool expectKind(const JsonValue &value, JsonValue::Kind kind,
                    const std::string &what)
    {
        if (value.kind == kind)
            return true;
        error("bad-kind", value,
              what + " must be a " + jsonKindName(kind) + ", got " +
                  jsonKindName(value.kind));
        return false;
    }

    std::optional<int> intOf(const JsonValue &value,
                             const std::string &what)
    {
        if (!expectKind(value, JsonValue::Kind::Number, what))
            return std::nullopt;
        const std::optional<int> integral = exactInt(value.number);
        if (!integral)
            error("bad-kind", value,
                  what + " must be an integer in int range");
        return integral;
    }

    void checkName(const JsonValue &value, SweepLintSummary *summary)
    {
        if (!expectKind(value, JsonValue::Kind::String, "\"name\""))
            return;
        if (summary != nullptr)
            summary->name = value.text;
        if (value.text.empty()) {
            error("bad-name", value, "\"name\" must not be empty");
            return;
        }
        for (const char c : value.text) {
            const bool ok =
                std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                c == '_' || c == '-' || c == '.';
            if (!ok) {
                error("bad-name", value,
                      "\"name\" may only contain letters, digits, "
                      "'_', '-' and '.'");
                return;
            }
        }
    }

    /** The "search" options block: same schema the parser enforces
     *  (sweep_spec.cpp parseSearch), but error-accumulating so one
     *  pass reports every defect with its position. */
    void walkSearch(const JsonValue &value)
    {
        if (!expectKind(value, JsonValue::Kind::Object, "\"search\""))
            return;
        for (const auto &[key, v] : value.members) {
            if (key == "budget") {
                const std::optional<int> budget =
                    intOf(v, "\"budget\"");
                if (budget && *budget < 1)
                    error("bad-search", v,
                          "\"budget\" must be at least 1");
            } else if (key == "eta") {
                const std::optional<int> eta = intOf(v, "\"eta\"");
                if (eta && *eta < 2)
                    error("bad-search", v,
                          "\"eta\" must be at least 2");
            } else if (key == "seed") {
                if (expectKind(v, JsonValue::Kind::Number, "\"seed\"") &&
                    !exactUint64(v.number))
                    error("bad-search", v,
                          "\"seed\" must be a non-negative integer "
                          "below 2^64");
            } else {
                error("unknown-key", v,
                      "unknown search key \"" + key +
                          "\" (known: budget, eta, seed)");
            }
        }
    }

    // -- grid walk ----------------------------------------------------

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
        std::vector<int> buffers;      // swept buffer slot values
    };

    void walkGrid(const JsonValue &grid)
    {
        if (grid.kind != JsonValue::Kind::Object) {
            error("bad-kind", grid,
                  "sweep grid must be an object, got " +
                      jsonKindName(grid.kind));
            return;
        }
        GridFacts facts;
        size_t points = 1;
        bool countable = true;
        for (const auto &[key, value] : grid.members) {
            if (key == "options") {
                checkOptions(value);
                continue;
            }
            const auto &axes = sweepAxisKeys();
            if (std::find(axes.begin(), axes.end(), key) == axes.end()) {
                std::string list;
                for (const std::string &axis_key : axes)
                    list += axis_key + ", ";
                error("unknown-key", value,
                      "unknown grid key \"" + key + "\" (known: " +
                          list + "options)");
                continue;
            }
            // "params" takes an object per value, so a bare object is
            // a scalar there, not an axis.
            if (value.kind == JsonValue::Kind::Array) {
                if (value.items.empty()) {
                    error("empty-axis", value,
                          "axis \"" + key +
                              "\" is unreachable: an empty array "
                              "makes the whole cross-product empty");
                    countable = false;
                    continue;
                }
                checkDuplicates(key, value);
                for (const JsonValue &item : value.items)
                    checkAxisValue(key, item, facts);
                if (points > kMaxSweepPoints / value.items.size()) {
                    error("grid-too-large", value,
                          "grid expands past the " +
                              std::to_string(kMaxSweepPoints) +
                              "-point cap");
                    countable = false;
                } else {
                    points *= value.items.size();
                }
            } else {
                checkAxisValue(key, value, facts);
            }
        }
        if (grid.find("apps") == nullptr)
            error("missing-apps", grid,
                  "sweep grid is missing \"apps\"");
        static_cast<void>(countable);
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

    void checkAxisValue(const std::string &key, const JsonValue &value,
                        GridFacts &facts)
    {
        if (key == "apps") {
            checkApp(value, facts);
        } else if (key == "topology") {
            checkTopology(value, facts);
        } else if (key == "capacity") {
            if (const auto capacity = intOf(value, "\"capacity\"")) {
                if (*capacity < 2)
                    error("bad-capacity", value,
                          "trap capacity must be at least 2, got " +
                              std::to_string(*capacity));
                else
                    facts.capacities.push_back(
                        {"", *capacity, &value});
            }
        } else if (key == "gate") {
            checkLookup(value, "\"gate\"", "unknown-gate", [&] {
                gateImplFromName(value.text);
            });
        } else if (key == "reorder") {
            checkLookup(value, "\"reorder\"", "unknown-reorder", [&] {
                reorderMethodFromName(value.text);
            });
        } else if (key == "policy") {
            checkLookup(value, "\"policy\"", "unknown-policy", [&] {
                mappingPolicyFromName(value.text);
            });
        } else if (key == "buffer") {
            if (const auto buffer = intOf(value, "\"buffer\"")) {
                if (*buffer < 0)
                    error("bad-buffer", value,
                          "buffer slots must be non-negative, got " +
                              std::to_string(*buffer));
                else
                    facts.buffers.push_back(*buffer);
            }
        } else if (key == "params") {
            checkParams(value);
        }
    }

    template <typename Fn>
    void checkLookup(const JsonValue &value, const std::string &what,
                     const char *code, Fn &&lookup)
    {
        if (!expectKind(value, JsonValue::Kind::String, what))
            return;
        try {
            lookup();
        } catch (const ConfigError &err) {
            error(code, value, err.what());
        }
    }

    void checkApp(const JsonValue &value, GridFacts &facts)
    {
        if (!expectKind(value, JsonValue::Kind::String, "application"))
            return;
        const std::string qasm_prefix = "qasm:";
        if (value.text.rfind(qasm_prefix, 0) == 0) {
            const std::string rel =
                value.text.substr(qasm_prefix.size());
            if (rel.empty()) {
                error("missing-file", value,
                      "empty path after \"qasm:\"");
                return;
            }
            const std::string path = resolveRelative(rel, baseDir_);
            if (!isRegularFile(path)) {
                error("missing-file", value,
                      "\"qasm:\" path does not resolve: '" + path +
                          "'");
                return;
            }
            facts.apps.push_back({value.text, 0, &value});
            return;
        }
        bool known = false;
        for (const BenchmarkSpec &bench : benchmarkList())
            known = known || bench.name == value.text;
        if (!known) {
            error("unknown-app", value,
                  "unknown application '" + value.text +
                      "' (see qccd_explore --list, or use "
                      "\"qasm:FILE\")");
            return;
        }
        facts.apps.push_back({value.text, 0, &value});
    }

    void checkTopology(const JsonValue &value, GridFacts &facts)
    {
        if (!expectKind(value, JsonValue::Kind::String, "\"topology\""))
            return;
        const std::string topo_prefix = "topo:";
        if (value.text.rfind(topo_prefix, 0) == 0) {
            const std::string rel =
                value.text.substr(topo_prefix.size());
            if (rel.empty()) {
                error("missing-file", value,
                      "empty path after \"topo:\"");
                return;
            }
            const std::string path = resolveRelative(rel, baseDir_);
            if (!isRegularFile(path)) {
                error("missing-file", value,
                      "\"topo:\" path does not resolve: '" + path +
                          "'");
                return;
            }
            facts.topologies.push_back(
                {topo_prefix + path, 0, &value});
            return;
        }
        try {
            validateTopologySpec(value.text);
        } catch (const ConfigError &err) {
            error("bad-topology", value, err.what());
            return;
        }
        facts.topologies.push_back({value.text, 0, &value});
    }

    void checkParams(const JsonValue &value)
    {
        if (value.kind != JsonValue::Kind::Object) {
            error("bad-kind", value,
                  "\"params\" must be an object (or an array of "
                  "objects), got " + jsonKindName(value.kind));
            return;
        }
        // The parser's own lookup and value check: same rule, same words.
        for (const auto &[param, pv] : value.members) {
            const char *code = "unknown-param";
            try {
                const HardwareKnob &knob = hardwareKnob(param);
                code = "bad-kind";
                if (expectKind(pv, JsonValue::Kind::Number,
                               "parameter \"" + param + "\""))
                    knob.check(pv.number);
            } catch (const ConfigError &err) {
                error(code, pv, err.what());
            }
        }
    }

    void checkOptions(const JsonValue &value)
    {
        if (!expectKind(value, JsonValue::Kind::Object, "\"options\""))
            return;
        for (const auto &[key, v] : value.members) {
            if (key == "decompose_runtime") {
                expectKind(v, JsonValue::Kind::Bool,
                           "\"decompose_runtime\"");
            } else if (key == "point_timeout_ms") {
                const std::optional<int> ms =
                    intOf(v, "\"point_timeout_ms\"");
                if (ms && *ms < 1)
                    error("bad-option", v,
                          "\"point_timeout_ms\" must be at least 1");
            } else if (key == "cache") {
                if (expectKind(v, JsonValue::Kind::String,
                               "\"cache\"") &&
                    v.text.empty())
                    error("bad-option", v,
                          "\"cache\" must not be empty");
            } else {
                error("unknown-option", v,
                      "unknown option \"" + key +
                          "\" (known: cache, decompose_runtime, "
                          "point_timeout_ms)");
            }
        }
    }

    // -- capacity/trap fit analysis ----------------------------------

    /** Qubit count of @p app ("qasm:" or builtin); nullopt after a
     *  diagnostic (bad QASM) or for apps already reported unknown. */
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
        JsonParser parser(text, origin);
        const JsonValue root = parser.parseDocument();
        SweepLinter(origin, base_dir, report).walk(root, summary);
    } catch (const ConfigError &err) {
        addFromConfigError(report, "parse", origin, err.what());
    } catch (const std::exception &err) {
        addDiag(report, LintSeverity::Error, "internal", origin, 0, 0,
                std::string("linter failure: ") + err.what());
    }
    if (summary == nullptr || report.errorCount() != before)
        return;
    // The walk was clean, so the real parser must accept the spec; its
    // expansion gives the point count the covering golden must match.
    // Any residual rejection is itself a finding (the linter's schema
    // walk missed something the parser enforces).
    try {
        summary->points = parseSweepPlan(text, origin, base_dir).size();
        summary->expanded = true;
    } catch (const ConfigError &err) {
        addFromConfigError(report, "parse", origin, err.what());
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
