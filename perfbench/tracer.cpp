/**
 * @file
 * In-process tracer for the explorer benchmark (perfbench/run.py).
 *
 * Walks `.sweep` specs through the library's public entry points in the
 * order `qccd_explore --sweep` / `--search` calls them, and records a
 * span around each layer call: spec parse, circuit generation / QASM
 * parse, lowering, context build, full schedule vs. model replay,
 * result-store open/key/lookup/insert, search ranking, and row export.
 * The program itself records no spans, so the walk re-drives the
 * stages of SweepSpecRunner::run, SweepEngine::run and
 * SearchEngine::run from outside (same batching, same schedule-key
 * grouping, same worker spans, same store order). run.py checks that
 * the rows this walk writes are byte-identical to the CLI's rows, so a
 * walk that drifted from the program fails the benchmark instead of
 * timing something else.
 *
 * Each spec gets fresh per-invocation state (engine caches, circuit
 * caches, store handle), as one CLI process would. Process-wide state
 * the CLI starts cold on every invocation (ModelTables::shared, the
 * allocator) stays warm across specs here.
 *
 * Usage:
 *   perfbench_trace --mode sweep|search --jobs N --seconds S
 *                   --out-dir DIR --spans FILE [--cache FILE]
 *                   [--search-seed N] SPEC...
 *
 * Alternates untraced and traced passes over SPEC... (in the given
 * order) until S seconds have passed, at least two of each, ending on
 * a traced pass. Prints one `pass` line per pass (its wall time and the
 * pass's counters as key=value), rewrites the rows of every spec in DIR
 * on each pass (<name>.csv for sweeps; <name>.search.csv and
 * <name>.winner for searches), and writes the traced spans to FILE at
 * exit, one per line: id parent thread name start_ns end_ns arg.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "circuit/qasm/parser.hpp"
#include "circuit/stats.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cost_model.hpp"
#include "core/export.hpp"
#include "core/result_store.hpp"
#include "core/search.hpp"
#include "core/sweep_engine.hpp"
#include "core/sweep_spec.hpp"
#include "core/toolflow.hpp"

namespace
{

using namespace qccd;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One finished span. */
struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0: a root span
    int thread = 0;      ///< 0: the main thread, w+1: engine worker w
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    long arg = 0; ///< engine.run: the batch's worker count
};

/** Span sink: spans stay in memory until write(). A disabled tracer
 *  reads no clock and records nothing. */
class Tracer
{
  public:
    bool enabled = false;

    uint64_t newId() { return nextId_.fetch_add(1); }

    void record(const SpanRecord &span)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(span);
    }

    void write(const std::string &path) const
    {
        std::ofstream out(path, std::ios::trunc);
        fatalUnless(out.good(), "cannot write file '" + path + "'");
        for (const SpanRecord &s : spans_)
            out << s.id << ' ' << s.parent << ' ' << s.thread << ' '
                << s.name << ' ' << s.startNs << ' ' << s.endNs << ' '
                << s.arg << '\n';
        fatalUnless(out.good(), "error writing '" + path + "'");
    }

  private:
    std::atomic<uint64_t> nextId_{1};
    std::mutex mutex_; // guards spans_
    std::vector<SpanRecord> spans_;
};

/** Open spans of the calling thread (innermost last). */
thread_local std::vector<uint64_t> tlsOpen;
thread_local int tlsThread = 0;

/** RAII span: parent is the innermost open span of this thread. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name) : tracer_(tracer)
    {
        if (!tracer_.enabled)
            return;
        rec_.id = tracer_.newId();
        rec_.parent = tlsOpen.empty() ? 0 : tlsOpen.back();
        rec_.thread = tlsThread;
        rec_.name = name;
        tlsOpen.push_back(rec_.id);
        rec_.startNs = nowNs();
    }

    ~Span()
    {
        if (!tracer_.enabled)
            return;
        rec_.endNs = nowNs();
        tlsOpen.pop_back();
        tracer_.record(rec_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return rec_.id; }
    void rename(const char *name) { rec_.name = name; }
    void setArg(long arg) { rec_.arg = arg; }

  private:
    Tracer &tracer_;
    SpanRecord rec_;
};

/** Exact per-pass counters, printed as key=value. */
using Counters = std::map<std::string, long>;

/** Per-invocation state: what one qccd_explore process holds. */
struct Invocation
{
    explicit Invocation(int jobs) : engine(jobs) {}

    SweepEngine engine; ///< used for its context cache only
    std::map<std::string, std::shared_ptr<const Circuit>> circuits;
    std::map<const Circuit *, Digest128> digests;
    std::set<ContextKey> contexts;
    ResultStore *store = nullptr;
};

/** Search ranking score (the order SearchEngine ranks by). */
struct Score
{
    double logFidelity = -std::numeric_limits<double>::infinity();
    double timeUs = std::numeric_limits<double>::infinity();
};

bool
better(const Score &a, size_t ia, const Score &b, size_t ib)
{
    if (a.logFidelity != b.logFidelity)
        return a.logFidelity > b.logFidelity;
    if (a.timeUs != b.timeUs)
        return a.timeUs < b.timeUs;
    return ia < ib;
}

class Walker
{
  public:
    Walker(Tracer &tracer, int jobs, std::string out_dir,
           std::string cache_path, std::optional<uint64_t> search_seed)
        : tracer_(tracer), jobs_(jobs), outDir_(std::move(out_dir)),
          cachePath_(std::move(cache_path)), searchSeed_(search_seed)
    {
    }

    Counters &counters() { return counters_; }

    /** One `qccd_explore --sweep SPEC` invocation. */
    void runSweepSpec(const std::string &path)
    {
        const Span spec(tracer_, "spec");
        SweepSpec parsed;
        {
            const Span s(tracer_, "spec.parse");
            parsed = parseSweepSpecFile(path);
        }
        counters_["spec.points"] += static_cast<long>(parsed.points.size());

        Invocation inv(jobs_);
        const std::unique_ptr<ResultStore> store = openStore(inv);
        const std::string out_path = outDir_ + "/" + parsed.name + ".csv";
        std::ofstream out(out_path, std::ios::trunc);
        fatalUnless(out.good(), "cannot write file '" + out_path + "'");
        SweepRowWriter writer(out, ExportFormat::Csv);
        evaluate(inv, parsed.points, SweepSpecRunner::kDefaultBatchSize,
                 [&](const SweepPoint &point) {
                     const Span s(tracer_, "export");
                     writer.write(point);
                     ++counters_["export.rows"];
                 });
        writer.finish();
        noteStore(store.get());
    }

    /** One `qccd_explore --search SPEC` invocation. */
    void runSearchSpec(const std::string &path)
    {
        const Span spec(tracer_, "spec");
        SweepPlan plan;
        {
            const Span s(tracer_, "spec.parse");
            plan = parseSweepPlanFile(path);
        }
        counters_["spec.points"] += static_cast<long>(plan.size());

        Invocation inv(jobs_);
        const std::unique_ptr<ResultStore> store = openStore(inv);
        const std::string report_path =
            outDir_ + "/" + plan.name + ".search.csv";
        std::ofstream report(report_path, std::ios::trunc);
        fatalUnless(report.good(),
                    "cannot write file '" + report_path + "'");

        SearchOptions options;
        options.budget = plan.search.budget;
        options.seed = searchSeed_.value_or(plan.search.seed);
        options.eta = plan.search.eta;
        const SearchOutcome outcome = search(inv, plan, options);

        SweepRowWriter writer(report, ExportFormat::Csv);
        for (const SearchEvaluation &ev : outcome.evaluations) {
            if (!ev.point.ok())
                continue;
            const Span s(tracer_, "export");
            writer.write(ev.point);
            ++counters_["export.rows"];
        }
        writer.finish();
        fatalUnless(outcome.haveWinner, "search produced no result");
        const std::string winner_path = outDir_ + "/" + plan.name + ".winner";
        std::ofstream winner(winner_path, std::ios::trunc);
        winner << sweepCsvRow(outcome.winner) << '\n';
        fatalUnless(winner.good(),
                    "error writing '" + winner_path + "'");

        const SearchStats &stats = outcome.stats;
        counters_["search.space"] += static_cast<long>(stats.space);
        counters_["search.evaluated"] += static_cast<long>(stats.evaluated);
        counters_["search.calibration"] +=
            static_cast<long>(stats.calibration);
        counters_["search.rungs"] += static_cast<long>(stats.rungs);
        noteStore(store.get());
    }

  private:
    std::unique_ptr<ResultStore> openStore(Invocation &inv)
    {
        if (cachePath_.empty())
            return nullptr;
        const Span s(tracer_, "store.open");
        auto store = std::make_unique<ResultStore>(cachePath_);
        inv.store = store.get();
        return store;
    }

    void noteStore(const ResultStore *store)
    {
        if (store == nullptr)
            return;
        const ResultStoreStats &cs = store->stats();
        counters_["store.loaded"] += static_cast<long>(cs.loaded);
        counters_["store.hits"] += static_cast<long>(cs.hits);
        counters_["store.misses"] += static_cast<long>(cs.misses);
        counters_["store.inserts"] += static_cast<long>(cs.inserts);
    }

    /** SweepSpecRunner::circuitFor: generate or parse, then lower, once
     *  per invocation. */
    std::shared_ptr<const Circuit> circuitFor(Invocation &inv,
                                              const PlannedPoint &point)
    {
        if (point.native != nullptr)
            return point.native;
        const bool builtin = point.qasmPath.empty();
        const std::string key = builtin ? "app:" + point.application
                                        : "qasm:" + point.qasmPath;
        const auto it = inv.circuits.find(key);
        if (it != inv.circuits.end())
            return it->second;

        const Circuit source = [&] {
            if (builtin) {
                const Span s(tracer_, "benchgen");
                ++counters_["benchgen.circuits"];
                return makeBenchmark(point.application);
            }
            const Span s(tracer_, "qasm.parse");
            counters_["qasm.bytes"] += static_cast<long>(
                std::filesystem::file_size(point.qasmPath));
            return qasm::parseFile(point.qasmPath);
        }();
        std::shared_ptr<const Circuit> native;
        {
            const Span s(tracer_, "lower");
            native = SweepEngine::lower(source);
        }
        ++counters_["lower.calls"];
        counters_["lower.native_gates"] += static_cast<long>(native->size());
        return inv.circuits.emplace(key, native).first->second;
    }

    std::shared_ptr<const ToolflowContext>
    contextFor(Invocation &inv, const DesignPoint &design)
    {
        const Span s(tracer_, "context");
        if (inv.contexts.insert(ToolflowContext::cacheKey(design)).second)
            ++counters_["context.builds"];
        return inv.engine.context(design);
    }

    /** SweepSpecRunner::run under the rethrow policy. */
    void evaluate(Invocation &inv, const std::vector<PlannedPoint> &points,
                  size_t batch_size,
                  const std::function<void(const SweepPoint &)> &emit)
    {
        const size_t none = static_cast<size_t>(-1);
        for (size_t start = 0; start < points.size(); start += batch_size) {
            const size_t end = std::min(points.size(), start + batch_size);
            std::vector<SweepJob> jobs;
            std::vector<size_t> slot(end - start, none);
            std::vector<SweepPoint> resolved(end - start);
            std::vector<std::optional<Digest128>> keys(end - start);
            for (size_t i = start; i < end; ++i) {
                const PlannedPoint &point = points[i];
                SweepJob job{point.application, circuitFor(inv, point),
                             point.design, point.options};
                if (inv.store != nullptr) {
                    std::optional<Digest128> &key = keys[i - start];
                    try {
                        const Span s(tracer_, "store.key");
                        key = ResultStore::keyFor(point.design,
                                                  point.options,
                                                  digestFor(inv, *job.native));
                    } catch (const QccdError &) {
                        // Unkeyable point: evaluated cold, as the CLI does.
                    }
                    if (key.has_value()) {
                        std::optional<RunResult> found;
                        {
                            const Span s(tracer_, "store.lookup");
                            found = inv.store->lookup(*key);
                        }
                        if (found.has_value()) {
                            SweepPoint &hit = resolved[i - start];
                            hit.application = point.application;
                            hit.design = point.design;
                            hit.result = *found;
                            continue;
                        }
                    }
                }
                slot[i - start] = jobs.size();
                jobs.push_back(std::move(job));
            }

            const std::vector<SweepPoint> results = engineRun(inv, jobs);
            for (size_t i = start; i < end; ++i) {
                const size_t s = slot[i - start];
                const SweepPoint &result =
                    s == none ? resolved[i - start] : results[s];
                if (s != none && keys[i - start].has_value()) {
                    const Span span(tracer_, "store.insert");
                    inv.store->insert(*keys[i - start], result.result);
                }
                emit(result);
            }
        }
    }

    Digest128 digestFor(Invocation &inv, const Circuit &native)
    {
        const auto it = inv.digests.find(&native);
        if (it != inv.digests.end())
            return it->second;
        return inv.digests.emplace(&native, ResultStore::circuitDigest(native))
            .first->second;
    }

    /** SweepEngine::run under FailurePolicy::Rethrow: serial context
     *  build, schedule-key grouping, one StagedToolflow per worker. */
    std::vector<SweepPoint> engineRun(Invocation &inv,
                                      const std::vector<SweepJob> &batch)
    {
        Span run(tracer_, "engine.run");
        ++counters_["engine.batches"];
        counters_["engine.evaluated"] += static_cast<long>(batch.size());

        std::vector<std::shared_ptr<const ToolflowContext>> contexts(
            batch.size());
        std::vector<SweepPoint> points(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            points[i].application = batch[i].application;
            points[i].design = batch[i].design;
            contexts[i] = contextFor(inv, batch[i].design);
        }

        const size_t workers = std::max<size_t>(
            std::min(static_cast<size_t>(jobs_), batch.size()), 1);
        run.setArg(static_cast<long>(workers));

        std::vector<size_t> order;
        order.reserve(batch.size());
        std::vector<std::pair<size_t, size_t>> spans;
        {
            std::map<ScheduleKey, size_t> groupOf;
            std::vector<std::vector<size_t>> groups;
            for (size_t i = 0; i < batch.size(); ++i) {
                const auto [it, inserted] = groupOf.emplace(
                    scheduleKeyFor(*batch[i].native, batch[i].design,
                                   batch[i].options),
                    groups.size());
                if (inserted)
                    groups.emplace_back();
                groups[it->second].push_back(i);
            }
            for (const std::vector<size_t> &g : groups) {
                const size_t chunk =
                    std::max<size_t>(1, (g.size() + workers - 1) / workers);
                for (size_t off = 0; off < g.size(); off += chunk) {
                    const size_t len = std::min(chunk, g.size() - off);
                    spans.emplace_back(order.size(), order.size() + len);
                    order.insert(order.end(), g.begin() + off,
                                 g.begin() + off + len);
                }
            }
        }

        std::atomic<size_t> nextSpan{0};
        std::vector<StagedToolflow::Stats> stats(workers);
        std::vector<long> simOps(workers, 0);
        std::vector<std::exception_ptr> errors(batch.size());
        const auto worker = [&](size_t w) {
            StagedToolflow staged;
            for (size_t s = nextSpan.fetch_add(1); s < spans.size();
                 s = nextSpan.fetch_add(1)) {
                for (size_t k = spans[s].first; k < spans[s].second; ++k) {
                    const size_t i = order[k];
                    const SweepJob &job = batch[i];
                    const size_t replays = staged.stats().replays;
                    Span span(tracer_, "schedule");
                    try {
                        points[i].result = staged.run(
                            *job.native, job.design, *contexts[i],
                            job.options);
                    } catch (...) {
                        errors[i] = std::current_exception();
                        continue;
                    }
                    if (staged.stats().replays != replays) {
                        span.rename("replay");
                    } else {
                        const OpCounts &c = points[i].result.sim.counts;
                        simOps[w] +=
                            c.algorithmMs + c.shuttles + c.splits + c.merges;
                    }
                }
            }
            stats[w] = staged.stats();
        };

        if (workers <= 1) {
            worker(0);
        } else {
            const uint64_t parent = run.id();
            std::vector<std::jthread> pool;
            pool.reserve(workers);
            for (size_t w = 0; w < workers; ++w)
                pool.emplace_back([&worker, parent, w] {
                    tlsThread = static_cast<int>(w) + 1;
                    tlsOpen.assign(1, parent);
                    worker(w);
                    tlsOpen.clear();
                });
        } // jthreads join here

        for (size_t w = 0; w < workers; ++w) {
            counters_["schedule.full"] +=
                static_cast<long>(stats[w].fullSchedules);
            counters_["replay.count"] += static_cast<long>(stats[w].replays);
            counters_["schedule.placements_reused"] +=
                static_cast<long>(stats[w].placementsReused);
            counters_["schedule.sim_ops"] += simOps[w];
        }
        for (const std::exception_ptr &error : errors)
            if (error)
                std::rethrow_exception(error);
        return points;
    }

    /** SearchEngine::run: analytic priors, seeded calibration, then
     *  successive halving, one evaluate() batch per rung. */
    SearchOutcome search(Invocation &inv, const SweepPlan &plan,
                         const SearchOptions &options)
    {
        const Span run(tracer_, "search.run");
        const size_t n = plan.size();
        fatalUnless(n > 0, "search space is empty");

        SearchOutcome out;
        out.stats.space = n;
        const size_t budget = options.budget == 0
                                  ? std::max<size_t>(1, n / 4)
                                  : std::min(options.budget, n);
        out.stats.budget = budget;
        const auto eta = static_cast<size_t>(std::max(2, options.eta));

        std::vector<char> evaluated(n, 0);
        size_t spent = 0;
        const auto evaluateIndices = [&](std::vector<size_t> indices) {
            std::sort(indices.begin(), indices.end());
            std::vector<PlannedPoint> points;
            points.reserve(indices.size());
            for (const size_t index : indices)
                points.push_back(plan.point(index));
            size_t at = 0;
            evaluate(inv, points, std::max<size_t>(1, indices.size()),
                     [&](const SweepPoint &point) {
                         const size_t index = indices[at++];
                         evaluated[index] = 1;
                         out.evaluations.push_back({index, point});
                     });
            spent += at;
        };

        if (budget >= n) {
            std::vector<size_t> all(n);
            for (size_t i = 0; i < n; ++i)
                all[i] = i;
            evaluateIndices(std::move(all));
        } else {
            const AnalyticCostModel analytic;
            std::vector<CostPrediction> priors(n);
            {
                const Span rank(tracer_, "search.rank");
                std::map<const Circuit *, CircuitStats> statsCache;
                std::map<std::pair<std::string, int>, TopologyFeatures>
                    featureCache;
                for (size_t i = 0; i < n; ++i) {
                    const PlannedPoint point = plan.point(i);
                    const std::shared_ptr<const Circuit> circuit =
                        circuitFor(inv, point);
                    auto statsIt = statsCache.find(circuit.get());
                    if (statsIt == statsCache.end())
                        statsIt = statsCache
                                      .emplace(circuit.get(),
                                               computeStats(*circuit))
                                      .first;
                    const std::pair<std::string, int> archKey{
                        point.design.topologySpec,
                        point.design.trapCapacity};
                    auto featIt = featureCache.find(archKey);
                    if (featIt == featureCache.end())
                        featIt = featureCache
                                     .emplace(archKey,
                                              extractTopologyFeatures(
                                                  contextFor(inv,
                                                             point.design)
                                                      ->topology()))
                                     .first;
                    priors[i] = analytic.predict(
                        point.design, statsIt->second, featIt->second);
                }
            }

            CalibratedCostModel model;
            std::vector<CalibratedCostModel::Sample> samples;
            const auto refit = [&]() {
                const Span rank(tracer_, "search.rank");
                samples.clear();
                for (const SearchEvaluation &ev : out.evaluations) {
                    if (!ev.point.ok())
                        continue;
                    samples.push_back({priors[ev.index],
                                       ev.point.result.sim.logFidelity,
                                       ev.point.result.totalTime()});
                }
                model.fit(samples);
            };

            size_t calibration = 0;
            if (budget >= 8)
                calibration = std::min<size_t>(budget / 3, 16);
            if (calibration > 0) {
                Rng rng(options.seed);
                std::vector<size_t> pick;
                pick.reserve(calibration);
                for (size_t j = 0; j < calibration; ++j) {
                    const size_t lo = n * j / calibration;
                    const size_t hi = n * (j + 1) / calibration;
                    pick.push_back(lo + rng.nextBelow(hi - lo));
                }
                evaluateIndices(std::move(pick));
                out.stats.calibration = spent;
                refit();
            }

            while (spent < budget) {
                const size_t remaining = budget - spent;
                size_t rung = remaining - remaining / eta;
                std::vector<size_t> frontier;
                {
                    const Span rank(tracer_, "search.rank");
                    frontier.reserve(n - spent);
                    for (size_t i = 0; i < n; ++i)
                        if (!evaluated[i])
                            frontier.push_back(i);
                    rung = std::min(rung, frontier.size());
                    std::vector<Score> scores(n);
                    for (const size_t i : frontier) {
                        const CostPrediction c = model.correct(priors[i]);
                        scores[i] = {c.logFidelity, c.timeUs};
                    }
                    std::partial_sort(
                        frontier.begin(),
                        frontier.begin() + static_cast<long>(rung),
                        frontier.end(), [&](size_t a, size_t b) {
                            return better(scores[a], a, scores[b], b);
                        });
                    frontier.resize(rung);
                }
                if (frontier.empty())
                    break;
                evaluateIndices(std::move(frontier));
                ++out.stats.rungs;
                refit();
            }
        }
        out.stats.evaluated = spent;

        std::sort(out.evaluations.begin(), out.evaluations.end(),
                  [](const SearchEvaluation &a, const SearchEvaluation &b) {
                      return a.index < b.index;
                  });
        for (const SearchEvaluation &ev : out.evaluations) {
            if (!ev.point.ok())
                continue;
            const double fid = ev.point.result.sim.logFidelity;
            const double time = ev.point.result.totalTime();
            if (!out.haveWinner || fid > out.winner.result.sim.logFidelity ||
                (fid == out.winner.result.sim.logFidelity &&
                 time < out.winner.result.totalTime())) {
                out.haveWinner = true;
                out.winnerIndex = ev.index;
                out.winner = ev.point;
            }
        }
        return out;
    }

    Tracer &tracer_;
    int jobs_;
    std::string outDir_;
    std::string cachePath_;
    std::optional<uint64_t> searchSeed_;
    Counters counters_;
};

int
usage(const std::string &why)
{
    std::cerr << "error: " << why << "\n"
              << "usage: perfbench_trace --mode sweep|search --jobs N "
                 "--seconds S --out-dir DIR --spans FILE [--cache FILE] "
                 "[--search-seed N] SPEC...\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode;
    int jobs = 0;
    double seconds = 0;
    std::string out_dir;
    std::string spans_path;
    std::string cache_path;
    std::optional<uint64_t> search_seed;
    std::vector<std::string> specs;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                fatalUnless(i + 1 < argc, "missing value for " + arg);
                return argv[++i];
            };
            if (arg == "--mode")
                mode = value();
            else if (arg == "--jobs")
                jobs = std::stoi(value());
            else if (arg == "--seconds")
                seconds = std::stod(value());
            else if (arg == "--out-dir")
                out_dir = value();
            else if (arg == "--spans")
                spans_path = value();
            else if (arg == "--cache")
                cache_path = value();
            else if (arg == "--search-seed")
                search_seed = std::stoull(value());
            else if (arg.rfind("--", 0) == 0)
                return usage("unknown flag " + arg);
            else
                specs.push_back(arg);
        }
    } catch (const std::exception &err) {
        return usage(err.what());
    }
    if (mode != "sweep" && mode != "search")
        return usage("--mode must be sweep or search");
    if (jobs < 1 || seconds <= 0 || out_dir.empty() || spans_path.empty() ||
        specs.empty())
        return usage("--jobs, --seconds, --out-dir, --spans and at least "
                     "one SPEC are required");

    try {
        Tracer tracer;
        Walker walker(tracer, jobs, out_dir, cache_path, search_seed);
        const int64_t deadline =
            nowNs() + static_cast<int64_t>(seconds * 1e9);
        for (int pass = 0;; ++pass) {
            const bool traced = pass % 2 == 1;
            tracer.enabled = traced;
            walker.counters().clear();
            const int64_t start = nowNs();
            {
                const Span root(tracer, "pass");
                for (const std::string &spec : specs) {
                    if (mode == "sweep")
                        walker.runSweepSpec(spec);
                    else
                        walker.runSearchSpec(spec);
                }
            }
            const int64_t wall = nowNs() - start;
            std::cout << "pass traced=" << (traced ? 1 : 0)
                      << " wall_ns=" << wall;
            for (const auto &[key, count] : walker.counters())
                std::cout << ' ' << key << '=' << count;
            std::cout << '\n';
            if (traced && pass >= 3 && nowNs() >= deadline)
                break;
        }
        tracer.enabled = false;
        tracer.write(spans_path);
    } catch (const std::exception &err) {
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    }
    return 0;
}
