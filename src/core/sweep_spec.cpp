#include "core/sweep_spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

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

class SpecBuilder
{
  public:
    SpecBuilder(const JsonParser &parser, const std::string &base_dir)
        : parser_(parser), baseDir_(base_dir)
    {
    }

    SweepPlan build(const JsonValue &root)
    {
        expect(root, JsonValue::Kind::Object, "spec document");
        SweepPlan plan;
        const JsonValue *sweeps = nullptr;
        for (const auto &[key, value] : root.members) {
            if (key == "name") {
                expect(value, JsonValue::Kind::String, "\"name\"");
                plan.name = value.text;
                checkName(value);
            } else if (key == "description") {
                expect(value, JsonValue::Kind::String,
                       "\"description\"");
                plan.description = value.text;
            } else if (key == "search") {
                parseSearch(value, plan.search);
            } else if (key == "sweeps") {
                expect(value, JsonValue::Kind::Array, "\"sweeps\"");
                sweeps = &value;
            } else {
                parser_.failAt(value,
                               "unknown spec key \"" + key +
                                   "\" (known: name, description, "
                                   "search, sweeps)");
            }
        }
        if (plan.name.empty())
            parser_.failAt(root, "spec is missing \"name\"");
        if (sweeps == nullptr || sweeps->items.empty())
            parser_.failAt(root,
                           "spec needs a non-empty \"sweeps\" array");
        size_t total = 0;
        for (const JsonValue &grid : sweeps->items) {
            plan.grids.push_back(buildGrid(grid, total));
            total += plan.grids.back().size();
        }
        return plan;
    }

  private:
    void expect(const JsonValue &value, JsonValue::Kind kind,
                const std::string &what) const
    {
        if (value.kind != kind)
            parser_.failAt(value, what + " must be a " +
                                      jsonKindName(kind) + ", got " +
                                      jsonKindName(value.kind));
    }

    /** The spec name becomes an output file stem; keep it shell-safe. */
    void checkName(const JsonValue &value) const
    {
        if (value.text.empty())
            parser_.failAt(value, "\"name\" must not be empty");
        for (const char c : value.text) {
            const bool ok =
                std::isalnum(static_cast<unsigned char>(c)) ||
                c == '_' || c == '-' || c == '.';
            if (!ok)
                parser_.failAt(value,
                               "\"name\" may only contain letters, "
                               "digits, '_', '-' and '.'");
        }
    }

    int intOf(const JsonValue &value, const std::string &what) const
    {
        expect(value, JsonValue::Kind::Number, what);
        const std::optional<int> integral = exactInt(value.number);
        if (!integral)
            parser_.failAt(value, what + " must be an integer in int range");
        return *integral;
    }

    /**
     * Run a name-lookup helper (gate/reorder/policy names, parameter
     * keys) whose ConfigErrors carry no document position, and re-raise
     * them anchored at @p value. Errors thrown via failAt() elsewhere
     * already carry their position and must not pass through this (the
     * prefix would double up).
     */
    template <typename Fn>
    auto lookupAt(const JsonValue &value, Fn &&fn) const
    {
        try {
            return fn();
        } catch (const ConfigError &err) {
            parser_.failAt(value, err.what());
        }
    }

    /**
     * Validate one axis value now (all schema and name errors carry
     * the document position) and return a setter that applies it to a
     * point later — the lazy-grid building block. Applying the
     * returned setter is exactly what the eager expansion used to do
     * in place.
     */
    SweepGrid::Setter makeSetter(const std::string &key,
                                 const JsonValue &value) const
    {
        if (key == "apps") {
            expect(value, JsonValue::Kind::String, "application");
            return makeApplicationSetter(value.text, value);
        }
        if (key == "topology") {
            expect(value, JsonValue::Kind::String, "\"topology\"");
            return makeTopologySetter(value.text, value);
        }
        if (key == "capacity") {
            const int capacity = intOf(value, "\"capacity\"");
            return [capacity](PlannedPoint &point) {
                point.design.trapCapacity = capacity;
            };
        }
        if (key == "gate") {
            expect(value, JsonValue::Kind::String, "\"gate\"");
            const GateImpl impl = lookupAt(
                value, [&] { return gateImplFromName(value.text); });
            return [impl](PlannedPoint &point) {
                point.design.hw.gateImpl = impl;
            };
        }
        if (key == "reorder") {
            expect(value, JsonValue::Kind::String, "\"reorder\"");
            const ReorderMethod reorder = lookupAt(value, [&] {
                return reorderMethodFromName(value.text);
            });
            return [reorder](PlannedPoint &point) {
                point.design.hw.reorder = reorder;
            };
        }
        if (key == "buffer") {
            const int buffer = intOf(value, "\"buffer\"");
            return [buffer](PlannedPoint &point) {
                point.design.hw.bufferSlots = buffer;
            };
        }
        if (key == "policy") {
            expect(value, JsonValue::Kind::String, "\"policy\"");
            const MappingPolicy policy = lookupAt(value, [&] {
                return mappingPolicyFromName(value.text);
            });
            return [policy](PlannedPoint &point) {
                point.options.mappingPolicy = policy;
            };
        }
        if (key == "params") {
            expect(value, JsonValue::Kind::Object, "\"params\"");
            std::vector<std::pair<const HardwareKnob *, double>> overrides;
            for (const auto &[param, pv] : value.members) {
                expect(pv, JsonValue::Kind::Number,
                       "parameter \"" + param + "\"");
                overrides.emplace_back(lookupAt(pv, [&] {
                    const HardwareKnob &knob = hardwareKnob(param);
                    knob.check(pv.number);
                    return &knob;
                }), pv.number);
            }
            return [overrides](PlannedPoint &point) {
                for (const auto &[knob, number] : overrides)
                    knob->set(point.design.hw, number);
            };
        }
        panicUnless(false, "axis key missing from sweepAxisKeys");
        return {};
    }

    /**
     * Topology axis values: builder specs are syntax-checked now so a
     * typo fails at parse time with the document position; "topo:FILE"
     * paths resolve relative to the spec file like "qasm:" paths do
     * (the file itself is read when the device is built).
     */
    SweepGrid::Setter
    makeTopologySetter(const std::string &text,
                       const JsonValue &value) const
    {
        const std::string topo_prefix = "topo:";
        std::string spec = text;
        if (text.rfind(topo_prefix, 0) == 0) {
            std::string path = text.substr(topo_prefix.size());
            if (path.empty())
                parser_.failAt(value, "empty path after \"topo:\"");
            if (path[0] != '/' && !baseDir_.empty())
                path = baseDir_ + "/" + path;
            spec = topo_prefix + path;
        } else {
            lookupAt(value, [&] {
                validateTopologySpec(text);
                return 0;
            });
        }
        return [spec](PlannedPoint &point) {
            point.design.topologySpec = spec;
        };
    }

    SweepGrid::Setter
    makeApplicationSetter(const std::string &text,
                          const JsonValue &value) const
    {
        const std::string qasm_prefix = "qasm:";
        if (text.rfind(qasm_prefix, 0) == 0) {
            std::string path = text.substr(qasm_prefix.size());
            if (path.empty())
                parser_.failAt(value, "empty path after \"qasm:\"");
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
        if (!known)
            parser_.failAt(value, "unknown application '" + text +
                                      "' (see qccd_explore --list, or "
                                      "use \"qasm:FILE\")");
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
        expect(value, JsonValue::Kind::Object, "\"options\"");
        for (const auto &[key, v] : value.members) {
            if (key == "decompose_runtime") {
                expect(v, JsonValue::Kind::Bool,
                       "\"decompose_runtime\"");
                options.decomposeRuntime = v.boolean;
            } else if (key == "point_timeout_ms") {
                const int ms = intOf(v, "\"point_timeout_ms\"");
                if (ms < 1)
                    parser_.failAt(v, "\"point_timeout_ms\" must be "
                                      "at least 1");
                options.pointTimeoutMs = ms;
            } else if (key == "cache") {
                expect(v, JsonValue::Kind::String, "\"cache\"");
                if (v.text.empty())
                    parser_.failAt(v, "\"cache\" must not be empty");
                std::string path = v.text;
                if (path[0] != '/' && !baseDir_.empty())
                    path = baseDir_ + "/" + path;
                options.cachePath = path;
            } else {
                parser_.failAt(v, "unknown option \"" + key +
                                      "\" (known: cache, "
                                      "decompose_runtime, "
                                      "point_timeout_ms)");
            }
        }
    }

    /** Parse the top-level "search" block (budget/eta/seed). */
    void parseSearch(const JsonValue &value,
                     SearchSpecOptions &search) const
    {
        expect(value, JsonValue::Kind::Object, "\"search\"");
        search.declared = true;
        for (const auto &[key, v] : value.members) {
            if (key == "budget") {
                const int budget = intOf(v, "\"budget\"");
                if (budget < 1)
                    parser_.failAt(v,
                                   "\"budget\" must be at least 1");
                search.budget = static_cast<size_t>(budget);
            } else if (key == "eta") {
                const int eta = intOf(v, "\"eta\"");
                if (eta < 2)
                    parser_.failAt(v, "\"eta\" must be at least 2");
                search.eta = eta;
            } else if (key == "seed") {
                expect(v, JsonValue::Kind::Number, "\"seed\"");
                const std::optional<uint64_t> seed = exactUint64(v.number);
                if (!seed)
                    parser_.failAt(v, "\"seed\" must be a "
                                      "non-negative integer below 2^64");
                search.seed = *seed;
            } else {
                parser_.failAt(v, "unknown search key \"" + key +
                                      "\" (known: budget, eta, "
                                      "seed)");
            }
        }
    }

    SweepGrid buildGrid(const JsonValue &grid,
                        size_t points_so_far) const
    {
        expect(grid, JsonValue::Kind::Object, "sweep grid");

        // An axis per array-valued key, in declaration order (first
        // declared varies slowest); scalars fix the value grid-wide.
        std::vector<SweepGrid::Axis> axes;
        PlannedPoint base;
        bool have_apps = false;

        for (const auto &[key, value] : grid.members) {
            if (key == "options") {
                parseOptions(value, base.options);
                continue;
            }
            bool known = false;
            for (const std::string &axis_key : sweepAxisKeys())
                known = known || key == axis_key;
            if (!known) {
                std::string list;
                for (const std::string &axis_key : sweepAxisKeys())
                    list += axis_key + ", ";
                parser_.failAt(value, "unknown grid key \"" + key +
                                          "\" (known: " + list +
                                          "options)");
            }
            have_apps = have_apps || key == "apps";
            // "params" takes an object per value, so a bare object is
            // a scalar there, not an axis.
            const bool is_axis = value.kind == JsonValue::Kind::Array;
            if (is_axis) {
                if (value.items.empty())
                    parser_.failAt(value, "axis \"" + key +
                                              "\" must not be empty");
                SweepGrid::Axis axis;
                axis.key = key;
                axis.values.reserve(value.items.size());
                for (const JsonValue &item : value.items)
                    axis.values.push_back(makeSetter(key, item));
                axes.push_back(std::move(axis));
            } else {
                makeSetter(key, value)(base);
            }
        }
        if (!have_apps)
            parser_.failAt(grid, "sweep grid is missing \"apps\"");

        size_t total = 1;
        for (const SweepGrid::Axis &axis : axes) {
            const size_t n = axis.values.size();
            if (total > kMaxSweepPoints / n)
                parser_.failAt(grid,
                               "grid expands to too many points");
            total *= n;
        }
        if (points_so_far > kMaxSweepPoints - total)
            parser_.failAt(grid, "spec expands to too many points");

        return {std::move(base), std::move(axes)};
    }

    const JsonParser &parser_;
    std::string baseDir_;
};

} // namespace

const std::vector<std::string> &
sweepAxisKeys()
{
    // One table drives the membership check, the unknown-key error
    // text, applyAxisValue's dispatch (which panics on anything not
    // listed here), and qccd_lint's schema walk — so the four can
    // never drift apart.
    static const std::vector<std::string> keys = {
        "apps",   "topology", "capacity", "gate",
        "reorder", "buffer",  "policy",   "params"};
    return keys;
}

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
    return SpecBuilder(parser, base_dir).build(root);
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

std::shared_ptr<const Circuit>
SweepSpecRunner::circuitFor(const PlannedPoint &point)
{
    if (point.native != nullptr)
        return point.native;
    if (point.qasmPath.empty())
        return engine_.nativeBenchmark(point.application);
    auto it = qasmCache_.find(point.qasmPath);
    if (it == qasmCache_.end())
        it = qasmCache_
                 .emplace(point.qasmPath,
                          SweepEngine::lower(
                              qasm::parseFile(point.qasmPath)))
                 .first;
    return it->second;
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

            if (cache != nullptr) {
                CacheSlot &cs = cslot[i - start];
                try {
                    cs.key = ResultStore::keyFor(
                        point.design, point.options,
                        circuitDigestFor(job.native));
                    cs.haveKey = true;
                } catch (const QccdError &) {
                    // Unkeyable (e.g. unreadable "topo:" file): run
                    // it cold and let evaluation report the problem.
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
