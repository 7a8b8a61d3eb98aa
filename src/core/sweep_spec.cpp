#include "core/sweep_spec.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "arch/builders.hpp"
#include "benchgen/benchgen.hpp"
#include "circuit/qasm/parser.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "compiler/mapping.hpp"
#include "core/result_store.hpp"
#include "core/sweep_engine.hpp"

namespace qccd
{

namespace
{

/** Hard cap on expanded points, so a typo'd grid cannot OOM the host. */
constexpr size_t kMaxSweepPoints = size_t{1} << 20;

/** Grid keys that take axis values; makeSetter dispatches on each. */
constexpr std::array<std::string_view, 8> kAxisKeys = {
    "apps",    "topology", "capacity", "gate",
    "reorder", "buffer",   "policy",   "params"};

/**
 * The spec schema. Every rule reports through report() with its stable
 * `qccd_lint` code: without a findings sink the first report throws
 * (parseSweepPlan), with one each is recorded and the caller steps past
 * the bad value (qccd_lint). Messages are built only when a rule fails.
 */
class SpecBuilder
{
  public:
    SpecBuilder(const JsonParser &parser, const std::string &base_dir,
                std::vector<SweepSpecFinding> *findings)
        : parser_(parser), baseDir_(base_dir), findings_(findings)
    {
    }

    SweepPlan build(const JsonValue &root) const
    {
        SweepPlan plan;
        if (!expect(root, JsonValue::Kind::Object, "spec document"))
            return plan;
        const JsonValue *sweeps = nullptr;
        for (const auto &[key, value] : root.members) {
            if (key == "name") {
                if (expect(value, JsonValue::Kind::String, "\"name\"")) {
                    plan.name = value.text;
                    checkName(value);
                }
            } else if (key == "description") {
                if (expect(value, JsonValue::Kind::String,
                           "\"description\""))
                    plan.description = value.text;
            } else if (key == "search") {
                parseSearch(value, plan.search);
            } else if (key == "sweeps") {
                if (expect(value, JsonValue::Kind::Array, "\"sweeps\""))
                    sweeps = &value;
            } else {
                report("unknown-key", value,
                       "unknown spec key \"" + key +
                           "\" (known: name, description, search, "
                           "sweeps)");
            }
        }
        // A present key of the wrong kind already has its finding.
        if (root.find("name") == nullptr)
            report("missing-name", root, "spec is missing \"name\"");
        if (sweeps == nullptr || sweeps->items.empty()) {
            if (sweeps != nullptr || root.find("sweeps") == nullptr)
                report("missing-sweeps", root,
                       "spec needs a non-empty \"sweeps\" array");
            return plan;
        }
        for (const JsonValue &grid : sweeps->items)
            addGrid(grid, plan);
        return plan;
    }

  private:
    void report(const char *code, const JsonValue &value,
                std::string message) const
    {
        if (findings_ == nullptr)
            parser_.failAt(value, message);
        findings_->push_back(
            {code, value.line, value.column, std::move(message)});
    }

    bool expect(const JsonValue &value, JsonValue::Kind kind,
                std::string_view what) const
    {
        if (value.kind == kind) [[likely]]
            return true;
        report("bad-kind", value,
               std::string(what) + " must be a " + jsonKindName(kind) +
                   ", got " + jsonKindName(value.kind));
        return false;
    }

    std::optional<int> intOf(const JsonValue &value,
                             std::string_view what) const
    {
        if (!expect(value, JsonValue::Kind::Number, what))
            return std::nullopt;
        const std::optional<int> integral = exactInt(value.number);
        if (!integral)
            report("bad-kind", value,
                   std::string(what) + " must be an integer in int range");
        return integral;
    }

    /** The spec name becomes an output file stem; keep it shell-safe. */
    void checkName(const JsonValue &value) const
    {
        const auto safe = [](char c) {
            return std::isalnum(static_cast<unsigned char>(c)) ||
                   c == '_' || c == '-' || c == '.';
        };
        if (value.text.empty())
            report("bad-name", value, "\"name\" must not be empty");
        else if (!std::all_of(value.text.begin(), value.text.end(), safe))
            report("bad-name", value,
                   "\"name\" may only contain letters, digits, '_', '-' "
                   "and '.'");
    }

    /**
     * Run a name-lookup helper (gate/reorder/policy names, parameter
     * keys) whose ConfigErrors carry no document position, and report
     * them under @p code at @p value. Errors raised via report()
     * elsewhere already carry their position and must not pass through
     * this (the prefix would double up).
     */
    template <typename Fn>
    auto lookupAt(const char *code, const JsonValue &value, Fn &&fn) const
        -> std::optional<decltype(fn())>
    {
        try {
            return fn();
        } catch (const ConfigError &err) {
            report(code, value, err.what());
            return std::nullopt;
        }
    }

    /** A string value resolved by @p fromName, e.g. a gate name. */
    template <typename FromName>
    auto named(const JsonValue &value, std::string_view what,
               const char *code, FromName fromName) const
    {
        return expect(value, JsonValue::Kind::String, what)
                   ? lookupAt(code, value,
                              [&] { return fromName(value.text); })
                   : std::nullopt;
    }

    /**
     * Validate one axis value now (every finding carries the document
     * position) and return a setter that applies it to a point later —
     * the lazy-grid building block; empty when the value is rejected.
     */
    SweepGrid::Setter makeSetter(std::string_view key,
                                 const JsonValue &value) const
    {
        if (key == "apps") {
            if (!expect(value, JsonValue::Kind::String, "application"))
                return nullptr;
            return makeApplicationSetter(value);
        }
        if (key == "topology") {
            if (!expect(value, JsonValue::Kind::String, "\"topology\""))
                return nullptr;
            return makeTopologySetter(value);
        }
        if (key == "capacity") {
            const std::optional<int> capacity = intOf(value, "\"capacity\"");
            if (!capacity)
                return nullptr;
            if (*capacity < 2) {
                report("bad-capacity", value,
                       "trap capacity must be at least 2, got " +
                           std::to_string(*capacity));
                return nullptr;
            }
            return [capacity = *capacity](PlannedPoint &point) {
                point.design.trapCapacity = capacity;
            };
        }
        if (key == "gate") {
            const auto impl =
                named(value, "\"gate\"", "unknown-gate", gateImplFromName);
            if (!impl)
                return nullptr;
            return [impl = *impl](PlannedPoint &point) {
                point.design.hw.gateImpl = impl;
            };
        }
        if (key == "reorder") {
            const auto reorder = named(value, "\"reorder\"",
                                       "unknown-reorder",
                                       reorderMethodFromName);
            if (!reorder)
                return nullptr;
            return [reorder = *reorder](PlannedPoint &point) {
                point.design.hw.reorder = reorder;
            };
        }
        if (key == "buffer") {
            const std::optional<int> buffer = intOf(value, "\"buffer\"");
            if (!buffer)
                return nullptr;
            if (*buffer < 0) {
                report("bad-buffer", value,
                       "buffer slots must be non-negative, got " +
                           std::to_string(*buffer));
                return nullptr;
            }
            return [buffer = *buffer](PlannedPoint &point) {
                point.design.hw.bufferSlots = buffer;
            };
        }
        if (key == "policy") {
            const auto policy = named(value, "\"policy\"",
                                      "unknown-policy",
                                      mappingPolicyFromName);
            if (!policy)
                return nullptr;
            return [policy = *policy](PlannedPoint &point) {
                point.options.mappingPolicy = policy;
            };
        }
        if (key == "params")
            return makeParamsSetter(value);
        panicUnless(false, "axis key missing from kAxisKeys");
        return nullptr;
    }

    SweepGrid::Setter makeParamsSetter(const JsonValue &value) const
    {
        if (!expect(value, JsonValue::Kind::Object, "\"params\""))
            return nullptr;
        std::vector<std::pair<const HardwareKnob *, double>> overrides;
        for (const auto &[param, pv] : value.members) {
            if (pv.kind != JsonValue::Kind::Number) {
                expect(pv, JsonValue::Kind::Number,
                       "parameter \"" + param + "\"");
                continue;
            }
            const auto knob = lookupAt("unknown-param", pv, [&] {
                return &hardwareKnob(param);
            });
            if (knob && lookupAt("bad-kind", pv, [&] {
                    (*knob)->check(pv.number);
                    return true;
                }))
                overrides.emplace_back(*knob, pv.number);
        }
        if (overrides.size() != value.members.size())
            return nullptr;
        return [overrides](PlannedPoint &point) {
            for (const auto &[knob, number] : overrides)
                knob->set(point.design.hw, number);
        };
    }

    /**
     * Topology axis values: builder specs are syntax-checked now so a
     * typo fails at parse time with the document position; "topo:FILE"
     * paths resolve relative to the spec file like "qasm:" paths do
     * (the file itself is read when the device is built).
     */
    SweepGrid::Setter makeTopologySetter(const JsonValue &value) const
    {
        const std::string &text = value.text;
        const std::string topo_prefix = "topo:";
        std::string spec = text;
        if (text.rfind(topo_prefix, 0) == 0) {
            std::string path = text.substr(topo_prefix.size());
            if (path.empty()) {
                report("missing-file", value, "empty path after \"topo:\"");
                return nullptr;
            }
            if (path[0] != '/' && !baseDir_.empty())
                path = baseDir_ + "/" + path;
            spec = topo_prefix + path;
        } else if (!lookupAt("bad-topology", value, [&] {
                       validateTopologySpec(text);
                       return true;
                   })) {
            return nullptr;
        }
        return [spec](PlannedPoint &point) {
            point.design.topologySpec = spec;
        };
    }

    SweepGrid::Setter makeApplicationSetter(const JsonValue &value) const
    {
        const std::string &text = value.text;
        const std::string qasm_prefix = "qasm:";
        if (text.rfind(qasm_prefix, 0) == 0) {
            std::string path = text.substr(qasm_prefix.size());
            if (path.empty()) {
                report("missing-file", value, "empty path after \"qasm:\"");
                return nullptr;
            }
            if (path[0] != '/' && !baseDir_.empty())
                path = baseDir_ + "/" + path;
            std::string stem = stemOf(path);
            return [path, stem](PlannedPoint &point) {
                point.qasmPath = path;
                point.application = stem;
            };
        }
        // Builtin applications are validated now so a typo fails at
        // parse time, not points deep into a long run.
        bool known = false;
        for (const BenchmarkSpec &bench : benchmarkList())
            known = known || bench.name == text;
        if (!known) {
            report("unknown-app", value,
                   "unknown application '" + text +
                       "' (see qccd_explore --list, or use "
                       "\"qasm:FILE\")");
            return nullptr;
        }
        return [text](PlannedPoint &point) {
            point.qasmPath.clear();
            point.application = text;
        };
    }

    static std::string stemOf(const std::string &path)
    {
        const size_t slash = path.find_last_of('/');
        const size_t start = slash == std::string::npos ? 0 : slash + 1;
        size_t end = path.find_last_of('.');
        if (end == std::string::npos || end <= start)
            end = path.size();
        return path.substr(start, end - start);
    }

    void parseOptions(const JsonValue &value, RunOptions &options) const
    {
        if (!expect(value, JsonValue::Kind::Object, "\"options\""))
            return;
        for (const auto &[key, v] : value.members) {
            if (key == "decompose_runtime") {
                if (expect(v, JsonValue::Kind::Bool,
                           "\"decompose_runtime\""))
                    options.decomposeRuntime = v.boolean;
            } else if (key == "point_timeout_ms") {
                const std::optional<int> ms =
                    intOf(v, "\"point_timeout_ms\"");
                if (ms && *ms < 1)
                    report("bad-option", v,
                           "\"point_timeout_ms\" must be at least 1");
                else if (ms)
                    options.pointTimeoutMs = *ms;
            } else if (key == "cache") {
                if (!expect(v, JsonValue::Kind::String, "\"cache\""))
                    continue;
                if (v.text.empty()) {
                    report("bad-option", v, "\"cache\" must not be empty");
                    continue;
                }
                std::string path = v.text;
                if (path[0] != '/' && !baseDir_.empty())
                    path = baseDir_ + "/" + path;
                options.cachePath = path;
            } else {
                report("unknown-option", v,
                       "unknown option \"" + key +
                           "\" (known: cache, decompose_runtime, "
                           "point_timeout_ms)");
            }
        }
    }

    /** Parse the top-level "search" block (budget/eta/seed). */
    void parseSearch(const JsonValue &value,
                     SearchSpecOptions &search) const
    {
        if (!expect(value, JsonValue::Kind::Object, "\"search\""))
            return;
        search.declared = true;
        for (const auto &[key, v] : value.members) {
            if (key == "budget") {
                const std::optional<int> budget = intOf(v, "\"budget\"");
                if (budget && *budget < 1)
                    report("bad-search", v, "\"budget\" must be at least 1");
                else if (budget)
                    search.budget = static_cast<size_t>(*budget);
            } else if (key == "eta") {
                const std::optional<int> eta = intOf(v, "\"eta\"");
                if (eta && *eta < 2)
                    report("bad-search", v, "\"eta\" must be at least 2");
                else if (eta)
                    search.eta = *eta;
            } else if (key == "seed") {
                if (!expect(v, JsonValue::Kind::Number, "\"seed\""))
                    continue;
                if (const auto seed = exactUint64(v.number))
                    search.seed = *seed;
                else
                    report("bad-search", v,
                           "\"seed\" must be a non-negative integer below "
                           "2^64");
            } else {
                report("unknown-key", v,
                       "unknown search key \"" + key +
                           "\" (known: budget, eta, seed)");
            }
        }
    }

    /** Build @p grid and append it to @p plan; a grid with a finding
     *  that sizes it (or breaks it as a whole) is left out. */
    void addGrid(const JsonValue &grid, SweepPlan &plan) const
    {
        if (!expect(grid, JsonValue::Kind::Object, "sweep grid"))
            return;

        // An axis per array-valued key, in declaration order (first
        // declared varies slowest); scalars fix the value grid-wide.
        std::vector<SweepGrid::Axis> axes;
        PlannedPoint base;
        size_t points = 1;
        const JsonValue *past_cap = nullptr; // the axis that crosses it

        for (const auto &[key, value] : grid.members) {
            if (key == "options") {
                parseOptions(value, base.options);
                continue;
            }
            if (std::find(kAxisKeys.begin(), kAxisKeys.end(), key) ==
                kAxisKeys.end()) {
                std::string list;
                for (const std::string_view axis_key : kAxisKeys)
                    list.append(axis_key).append(", ");
                report("unknown-key", value,
                       "unknown grid key \"" + key + "\" (known: " + list +
                           "options)");
                continue;
            }
            // "params" takes an object per value, so a bare object is
            // a scalar there, not an axis.
            if (value.kind != JsonValue::Kind::Array) {
                if (const SweepGrid::Setter set = makeSetter(key, value))
                    set(base);
                continue;
            }
            if (value.items.empty()) {
                report("empty-axis", value,
                       "axis \"" + key +
                           "\" must not be empty: an empty array makes "
                           "the whole cross-product empty");
                continue;
            }
            SweepGrid::Axis axis;
            axis.key = key;
            axis.values.reserve(value.items.size());
            for (const JsonValue &item : value.items)
                if (SweepGrid::Setter set = makeSetter(key, item))
                    axis.values.push_back(std::move(set));
            // Only a collecting pass gets here with values rejected; an
            // axis that kept none drops out rather than empty the grid.
            const size_t n = axis.values.size();
            if (n == 0)
                continue;
            if (past_cap == nullptr && points > kMaxSweepPoints / n)
                past_cap = &value;
            else if (past_cap == nullptr)
                points *= n;
            axes.push_back(std::move(axis));
        }
        if (grid.find("apps") == nullptr)
            report("missing-apps", grid, "sweep grid is missing \"apps\"");
        if (past_cap != nullptr) {
            report("grid-too-large", *past_cap,
                   "grid expands past the " +
                       std::to_string(kMaxSweepPoints) + "-point cap");
            return;
        }
        if (plan.size() > kMaxSweepPoints - points) {
            report("grid-too-large", grid,
                   "spec expands past the " +
                       std::to_string(kMaxSweepPoints) +
                       "-point cap with this grid");
            return;
        }
        plan.grids.emplace_back(std::move(base), std::move(axes));
    }

    const JsonParser &parser_;
    std::string baseDir_;
    std::vector<SweepSpecFinding> *findings_;
};

} // namespace

SweepGrid::SweepGrid(PlannedPoint base, std::vector<Axis> axes)
    : base_(std::move(base)), axes_(std::move(axes))
{
    for (const Axis &axis : axes_)
        size_ *= axis.values.size();
}

PlannedPoint
SweepGrid::point(size_t index) const
{
    panicUnless(index < size_, "grid point index out of range");
    PlannedPoint point = base_;
    // Odometer decode, first declared axis the slowest digit, setters
    // applied in declaration order — the same point the eager
    // expansion produced at this position.
    size_t stride = size_;
    for (const Axis &axis : axes_) {
        stride /= axis.values.size();
        axis.values[(index / stride) % axis.values.size()](point);
    }
    return point;
}

size_t
SweepPlan::size() const
{
    size_t total = 0;
    for (const SweepGrid &grid : grids)
        total += grid.size();
    return total;
}

PlannedPoint
SweepPlan::point(size_t index) const
{
    for (const SweepGrid &grid : grids) {
        if (index < grid.size())
            return grid.point(index);
        index -= grid.size();
    }
    panicUnless(false, "plan point index out of range");
    return {};
}

std::vector<PlannedPoint>
SweepPlan::expand() const
{
    std::vector<PlannedPoint> points;
    points.reserve(size());
    for (const SweepGrid &grid : grids)
        for (size_t i = 0; i < grid.size(); ++i)
            points.push_back(grid.point(i));
    return points;
}

SweepPlan
parseSweepPlan(const std::string &text, const std::string &origin,
               const std::string &base_dir)
{
    JsonParser parser(text, origin);
    const JsonValue root = parser.parseDocument();
    return SpecBuilder(parser, base_dir, nullptr).build(root);
}

SweepPlan
parseSweepPlan(const std::string &text, const std::string &origin,
               const std::string &base_dir, JsonValue &document,
               std::vector<SweepSpecFinding> &findings)
{
    JsonParser parser(text, origin);
    try {
        document = parser.parseDocument();
    } catch (const JsonError &err) {
        document = JsonValue{};
        findings.push_back({"parse", err.line, err.column, err.message});
        return {};
    }
    return SpecBuilder(parser, base_dir, &findings).build(document);
}

SweepPlan
parseSweepPlanFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in.good())
        throw ConfigError("cannot read sweep spec '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        throw ConfigError("error reading sweep spec '" + path + "'");
    const size_t slash = path.find_last_of('/');
    const std::string base_dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    return parseSweepPlan(text.str(), path, base_dir);
}

SweepSpec
parseSweepSpec(const std::string &text, const std::string &origin,
               const std::string &base_dir)
{
    SweepPlan plan = parseSweepPlan(text, origin, base_dir);
    return {std::move(plan.name), std::move(plan.description),
            plan.expand()};
}

SweepSpec
parseSweepSpecFile(const std::string &path)
{
    SweepPlan plan = parseSweepPlanFile(path);
    return {std::move(plan.name), std::move(plan.description),
            plan.expand()};
}

SweepShard
parseShard(const std::string &text)
{
    const size_t slash = text.find('/');
    if (slash == std::string::npos)
        throw ConfigError("shard must be I/N, e.g. 0/4; got '" + text + "'");
    SweepShard shard;
    const char *begin = text.data();
    auto [iptr, iec] =
        std::from_chars(begin, begin + slash, shard.index);
    auto [nptr, nec] = std::from_chars(begin + slash + 1,
                                       begin + text.size(), shard.count);
    if (iec != std::errc() || iptr != begin + slash ||
        nec != std::errc() || nptr != begin + text.size())
        throw ConfigError("shard must be I/N, e.g. 0/4; got '" + text + "'");
    fatalUnless(shard.count >= 1, "shard count must be at least 1");
    fatalUnless(shard.index >= 0 && shard.index < shard.count,
                "shard index must be in [0, count)");
    return shard;
}

std::pair<size_t, size_t>
shardRange(size_t total, int index, int count)
{
    fatalUnless(count >= 1, "shard count must be at least 1");
    fatalUnless(index >= 0 && index < count,
                "shard index must be in [0, count)");
    const size_t n = static_cast<size_t>(count);
    const size_t i = static_cast<size_t>(index);
    return {total * i / n, total * (i + 1) / n};
}

SweepSpecRunner::SweepSpecRunner(SweepEngine &engine) : engine_(engine)
{
}

SweepSpecRunner::AppCircuits &
SweepSpecRunner::appFor(const PlannedPoint &point)
{
    const bool builtin = point.qasmPath.empty();
    const std::string key =
        builtin ? point.application : "qasm:" + point.qasmPath;
    auto it = apps_.find(key);
    if (it == apps_.end())
        it = apps_
                 .emplace(key, AppCircuits{
                                   builtin ? makeBenchmark(point.application)
                                           : qasm::parseFile(point.qasmPath),
                                   std::nullopt, nullptr})
                 .first;
    return it->second;
}

std::shared_ptr<const Circuit>
SweepSpecRunner::circuitFor(const PlannedPoint &point)
{
    if (point.native != nullptr)
        return point.native;
    AppCircuits &app = appFor(point);
    if (app.native == nullptr)
        app.native = SweepEngine::lower(app.source);
    return app.native;
}

std::optional<Digest128>
SweepSpecRunner::loweredDigestFor(const PlannedPoint &point)
{
    if (point.native != nullptr)
        return circuitDigestFor(point.native);
    AppCircuits *app = nullptr;
    try {
        app = &appFor(point);
    } catch (...) {
        return std::nullopt;
    }
    if (!app->loweredDigest)
        app->loweredDigest = ResultStore::loweredCircuitDigest(app->source);
    return app->loweredDigest;
}

Digest128
SweepSpecRunner::circuitDigestFor(
    const std::shared_ptr<const Circuit> &native)
{
    const auto it = digestCache_.find(native);
    if (it != digestCache_.end())
        return it->second;
    const Digest128 digest = ResultStore::circuitDigest(*native);
    digestCache_.emplace(native, digest);
    return digest;
}

SweepRunStats
SweepSpecRunner::run(const std::vector<PlannedPoint> &points, size_t skip,
                     const std::function<void(const SweepPoint &)> &emit,
                     const SweepRunPolicy &policy, size_t batch_size)
{
    fatalUnless(batch_size >= 1, "batch size must be at least 1");
    SweepRunStats stats;
    const FailurePolicy engine_policy = policy.keepGoing
                                            ? FailurePolicy::Isolate
                                            : FailurePolicy::Rethrow;

    // The engine's stage-reuse counters are cumulative across batches
    // (and across runs sharing the engine); report this run's share.
    const StagedToolflow::Stats delta_before = engine_.deltaStats();
    const auto finishStats = [&]() {
        const StagedToolflow::Stats &after = engine_.deltaStats();
        stats.fullSchedules =
            after.fullSchedules - delta_before.fullSchedules;
        stats.replays = after.replays - delta_before.replays;
    };

    // The cache degrades, never sinks: any store failure mid-run
    // (I/O error, injected cache.* fault) drops it for the rest of
    // the run with one warning, and every point is evaluated cold —
    // the acceptance contract is identical bytes either way.
    ResultStore *cache = policy.cache;
    const auto disableCache = [&cache](const char *what,
                                       const std::exception &err) {
        std::fprintf(stderr,
                     "warning: result cache disabled (%s: %s); "
                     "continuing without it\n",
                     what, err.what());
        cache = nullptr;
    };

    // Per-batch-position cache state: the key (when computable), and
    // under cacheVerify the stored result a recomputation must match.
    struct CacheSlot
    {
        bool haveKey = false;
        bool verifyHit = false;
        Digest128 key;
        RunResult cached;
    };

    for (size_t start = skip; start < points.size();
         start += batch_size) {
        const size_t end =
            std::min(points.size(), start + batch_size);

        // Under keepGoing a circuit that fails to load (missing QASM
        // file, parse error, fault injection in the lowering path)
        // becomes a prefailed point of this batch rather than sinking
        // the whole shard; `slot` maps batch positions to engine jobs.
        // Cache hits resolve the same way: a filled `resolved` row
        // and no engine job.
        const size_t none = static_cast<size_t>(-1);
        std::vector<SweepJob> jobs;
        std::vector<size_t> slot(end - start, none);
        std::vector<SweepPoint> resolved(end - start);
        std::vector<CacheSlot> cslot(end - start);
        jobs.reserve(end - start);
        for (size_t i = start; i < end; ++i) {
            const PlannedPoint &point = points[i];
            if (cache != nullptr) {
                // Keyed from the source circuit: only a point that
                // misses (or a hit under cacheVerify) is lowered below.
                // A circuit that does not load is unkeyable, and
                // circuitFor reports why.
                CacheSlot &cs = cslot[i - start];
                if (const std::optional<Digest128> circuit =
                        loweredDigestFor(point)) {
                    try {
                        cs.key = ResultStore::keyFor(
                            point.design, point.options, *circuit);
                        cs.haveKey = true;
                    } catch (const QccdError &) {
                        // Unkeyable (e.g. unreadable "topo:" file):
                        // run it cold and let evaluation report it.
                    }
                }
                if (cs.haveKey) {
                    try {
                        const std::optional<RunResult> found =
                            cache->lookup(cs.key);
                        if (found.has_value()) {
                            ++stats.cacheHits;
                            if (policy.cacheVerify) {
                                cs.verifyHit = true;
                                cs.cached = *found;
                            } else {
                                SweepPoint &hit = resolved[i - start];
                                hit.application = point.application;
                                hit.design = point.design;
                                hit.result = *found;
                                continue; // no engine job needed
                            }
                        }
                    } catch (const std::exception &err) {
                        disableCache("lookup failed", err);
                    }
                }
            }

            SweepJob job;
            job.application = point.application;
            job.design = point.design;
            job.options = point.options;
            if (policy.keepGoing) {
                try {
                    job.native = circuitFor(point);
                } catch (...) {
                    SweepPoint &failed = resolved[i - start];
                    failed.application = point.application;
                    failed.design = point.design;
                    failed.outcome = classifyFailure(
                        std::current_exception(), &failed.error);
                    continue;
                }
            } else {
                job.native = circuitFor(point);
            }
            slot[i - start] = jobs.size();
            jobs.push_back(std::move(job));
        }

        const std::vector<SweepPoint> results =
            engine_.run(jobs, engine_policy);
        for (size_t i = start; i < end; ++i) {
            const size_t s = slot[i - start];
            const SweepPoint &result =
                s == none ? resolved[i - start] : results[s];
            const CacheSlot &cs = cslot[i - start];
            if (s != none && cache != nullptr && cs.haveKey &&
                result.ok()) {
                if (cs.verifyHit) {
                    if (ResultStore::encodeRecordPayload(cs.key,
                                                         cs.cached) !=
                        ResultStore::encodeRecordPayload(
                            cs.key, result.result)) {
                        ++stats.cacheDivergent;
                        std::fprintf(
                            stderr,
                            "error: result cache divergence at point "
                            "'%s' (key %s): stored record differs "
                            "from recomputation\n",
                            result.application.c_str(),
                            cs.key.hex().c_str());
                    }
                } else {
                    // Insert before emitting the row: a kill between
                    // the two leaves the store ahead of the CSV, and
                    // the resumed run re-hits instead of re-appending
                    // — warm store bytes stay deterministic.
                    try {
                        cache->insert(cs.key, result.result);
                    } catch (const std::exception &err) {
                        disableCache("append failed", err);
                    }
                }
            }
            ++stats.evaluated;
            if (!result.ok())
                ++stats.failed;
            emit(result);
            // The error budget stops the sweep mid-batch: emitted
            // points stay durable, everything after them is reported
            // as unevaluated (aborted stays false when the budget
            // trips on the very last point — nothing was cut short).
            if (policy.keepGoing && policy.maxErrors > 0 &&
                stats.failed >= policy.maxErrors &&
                (i + 1 < end || end < points.size())) {
                stats.aborted = true;
                finishStats();
                return stats;
            }
        }
    }
    finishStats();
    return stats;
}

void
SweepSpecRunner::run(const std::vector<PlannedPoint> &points, size_t skip,
                     const std::function<void(const SweepPoint &)> &emit,
                     size_t batch_size)
{
    run(points, skip, emit, SweepRunPolicy{}, batch_size);
}

} // namespace qccd
