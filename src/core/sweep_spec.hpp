/**
 * @file
 * Declarative sweep specifications: run any design-space scenario from
 * a file. The committed paper figures and ablations are such files
 * (examples/sweeps/), checked against golden/.
 *
 * A `.sweep` file is a small JSON document (hand-rolled parser, no
 * dependencies; `#` comments and trailing commas are allowed) that
 * declares one or more cross-product grids over the toolflow's inputs:
 *
 *     {
 *       "name": "fig6_trap_sizing",        # output stem
 *       "sweeps": [{
 *         "apps": ["adder", "qft"],        # builtin or "qasm:FILE"
 *         "topology": "linear:6",
 *         "capacity": [14, 18, 22],
 *         "gate": "FM",                    # AM1 | AM2 | PM | FM
 *         "reorder": "GS",                 # GS | IS
 *         "buffer": 2,
 *         "policy": "packed",              # packed | balanced
 *         "params": {"heating_k1": 0.1},   # see kHardwareKnobs
 *         "options": {"decompose_runtime": true}
 *       }]
 *     }
 *
 * Every grid key except "options" accepts either a scalar (fixed for
 * the whole grid) or an array (a sweep axis). Axes expand as nested
 * loops in declaration order — the first array declared varies slowest
 * — so a spec fixes its row order exactly.
 * "params" values are objects mapping model-parameter names (the
 * paper's sensitivity axes: gate fidelity constants, heating rates,
 * shuttle timings) to numbers; an array of such objects sweeps
 * co-varying parameter sets that a plain cross product cannot express.
 * Grids expand in file order and concatenate into one row stream.
 *
 * An optional top-level "search" block configures surrogate-guided
 * search over the same space (core/search.hpp):
 *
 *     "search": {"budget": 16, "seed": 7, "eta": 2}
 *
 * Parsing yields a SweepPlan first — grids hold their axes as
 * pre-validated value setters and decode any point index on demand —
 * so a search can address a combinatorially large space without
 * materializing it. parseSweepSpec() is the eager wrapper that expands
 * a plan into the flat point list sweeps execute.
 *
 * Expanded points execute through the shared SweepEngine in batches,
 * with contiguous sharding (--shard i/n; concatenating shard outputs in
 * index order is byte-identical to the unsharded run) and append/resume
 * (completed rows already in the output CSV are skipped). Rows stream
 * through SweepRowWriter (core/export.hpp), the one formatting path
 * every sweep export shares.
 */

#ifndef QCCD_CORE_SWEEP_SPEC_HPP
#define QCCD_CORE_SWEEP_SPEC_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "core/sweep.hpp"

namespace qccd
{

struct JsonValue;
class ResultStore;
class SweepEngine;

/** One expanded grid point, ready to be evaluated. */
struct PlannedPoint
{
    /** Label recorded in the output rows (builtin name or QASM stem). */
    std::string application;

    /** Path of the QASM source; empty for builtin applications. */
    std::string qasmPath;

    /**
     * Already-lowered circuit, set by callers that build points
     * programmatically around a circuit with no spec name (the
     * --recommend path). When set it wins over application/qasmPath
     * for evaluation; `application` stays the row label.
     */
    std::shared_ptr<const Circuit> native;

    DesignPoint design;
    RunOptions options;
};

/** A parsed, fully expanded sweep specification. */
struct SweepSpec
{
    /** Output stem: `qccd_explore --sweep` writes <name>.<format>. */
    std::string name;

    /** Optional free-text description. */
    std::string description;

    /** Every grid point in file order (grids concatenated). */
    std::vector<PlannedPoint> points;
};

/** Spec-level configuration of the surrogate-guided search
 *  (`"search"` block; see core/search.hpp for the semantics). */
struct SearchSpecOptions
{
    /** True when the spec declared a "search" block. */
    bool declared = false;

    /** Real-evaluation budget; 0 = default (a quarter of the space,
     *  the headline ratio, but at least one point). */
    size_t budget = 0;

    /** Calibration-sampling seed (deterministic by construction). */
    uint64_t seed = kDefaultSearchSeed;

    /** Successive-halving rate: each rung keeps ~1/eta of the
     *  remaining budget for later rungs. */
    int eta = 2;

    static constexpr uint64_t kDefaultSearchSeed = 0x9E3779B97F4A7C15ULL;
};

/**
 * One declared grid in lazy form: a base point plus per-axis vectors of
 * pre-validated value setters. point(i) decodes the odometer (first
 * declared axis varies slowest — identical order to eager expansion)
 * without touching any other index, so a search can address point
 * 814_231 of a million-point grid in O(axes).
 */
class SweepGrid
{
  public:
    using Setter = std::function<void(PlannedPoint &)>;

    struct Axis
    {
        std::string key;
        std::vector<Setter> values;
    };

    SweepGrid(PlannedPoint base, std::vector<Axis> axes);

    /** Number of points this grid expands to (product of axis sizes). */
    size_t size() const { return size_; }

    /** Decode point @p index (grid-local, in [0, size())). */
    PlannedPoint point(size_t index) const;

    /** The scalar-valued base every point starts from. */
    const PlannedPoint &base() const { return base_; }

  private:
    PlannedPoint base_;
    std::vector<Axis> axes_;
    size_t size_ = 1;
};

/**
 * A parsed sweep specification with its grids kept lazy. expand() is
 * exactly the flat point list parseSweepSpec() returns; size()/point()
 * serve the search layer without materializing the space.
 */
struct SweepPlan
{
    std::string name;
    std::string description;
    SearchSpecOptions search;
    std::vector<SweepGrid> grids;

    /** Total points across grids. */
    size_t size() const;

    /** Decode absolute point @p index (spec order, grids
     *  concatenated) — the index sweeps and CSV rows use. */
    PlannedPoint point(size_t index) const;

    /** Eagerly expand every grid, in spec order. */
    std::vector<PlannedPoint> expand() const;
};

/** Lazy counterpart of parseSweepSpec (same schema, same errors). */
SweepPlan parseSweepPlan(const std::string &text,
                         const std::string &origin = "sweep",
                         const std::string &base_dir = "");

/** Parse a `.sweep` file into a lazy plan. */
SweepPlan parseSweepPlanFile(const std::string &path);

/**
 * One schema finding: the stable `qccd_lint` code of the rule that
 * failed ("unknown-key", "bad-capacity", ...; "parse" for JSON syntax),
 * the offending value's 1-based position, and the message a throwing
 * parse puts after "origin:line:column: ".
 */
struct SweepSpecFinding
{
    const char *code;
    int line;
    int column;
    std::string message;
};

/**
 * The collecting form of parseSweepPlan, for `qccd_lint`: the same pass
 * over the same rules, but each finding is appended to @p findings and
 * the pass steps past the bad value instead of throwing. Nothing
 * cascades from a finding: a rejected axis value is left out of its
 * axis with no empty-axis or size finding after it, and a wrongly typed
 * "name" or "sweeps" gets no missing-key finding. The first finding is
 * the error parseSweepPlan throws; with none, the plan is the one
 * parseSweepPlan returns.
 *
 * @param document receives the parsed document (null after a syntax
 *        error), so the caller can place findings of its own
 */
SweepPlan parseSweepPlan(const std::string &text,
                         const std::string &origin,
                         const std::string &base_dir,
                         JsonValue &document,
                         std::vector<SweepSpecFinding> &findings);

/**
 * Parse sweep-spec text.
 *
 * @param text the spec document
 * @param origin name used in error messages (e.g. the file path)
 * @param base_dir directory "qasm:" application paths are resolved
 *        against (empty: the current working directory)
 * @throws ConfigError with origin:line:column on the first syntax or
 *         schema error — malformed input never crashes
 */
SweepSpec parseSweepSpec(const std::string &text,
                         const std::string &origin = "sweep",
                         const std::string &base_dir = "");

/** Parse a `.sweep` file; "qasm:" paths resolve relative to it. */
SweepSpec parseSweepSpecFile(const std::string &path);

/** Shard selector: contiguous slice @p index of @p count. */
struct SweepShard
{
    int index = 0;
    int count = 1;
};

/** Parse "i/n" (0 <= i < n); throws ConfigError on bad input. */
SweepShard parseShard(const std::string &text);

/**
 * The contiguous half-open range [first, last) of @p total points that
 * shard @p index of @p count evaluates. Slices are balanced (sizes
 * differ by at most one) and their in-order concatenation covers
 * 0..total exactly.
 */
std::pair<size_t, size_t> shardRange(size_t total, int index, int count);

/** How SweepSpecRunner::run reacts when a point fails. */
struct SweepRunPolicy
{
    /** Isolate failures as per-point outcomes instead of rethrowing
     *  the first one (the `--keep-going` behaviour). */
    bool keepGoing = false;

    /** Under keepGoing, stop evaluating once this many points have
     *  failed and at least one point remains (0 = unlimited). */
    size_t maxErrors = 0;

    /**
     * Persistent result store consulted before evaluating each point
     * and fed every Ok result (nullptr = no caching). Cache-hit rows
     * are byte-identical to recomputed ones; any cache failure mid-run
     * (I/O error, injected fault) disables the cache with a warning
     * and the sweep continues cold — the cache can slow a run down,
     * never change or sink it.
     */
    ResultStore *cache = nullptr;

    /**
     * Audit mode: hits are recomputed anyway and compared bit-exactly
     * against the cached record; divergences are counted in
     * SweepRunStats::cacheDivergent (the emitted row is always the
     * recomputed one). Misses still warm the cache.
     */
    bool cacheVerify = false;
};

/** What a SweepSpecRunner::run call did. */
struct SweepRunStats
{
    /** Points emitted (successes and isolated failures). */
    size_t evaluated = 0;

    /** Emitted points whose outcome is not Ok. */
    size_t failed = 0;

    /** True when maxErrors tripped with points still unevaluated. */
    bool aborted = false;

    /** Points answered from the result store without evaluation. */
    size_t cacheHits = 0;

    /** Under cacheVerify: hits whose recomputation disagreed with the
     *  stored record (any nonzero count is a defect report). */
    size_t cacheDivergent = 0;

    /** Evaluated points that ran the full scheduler (staged toolflow;
     *  see SweepEngine::deltaStats). @{ */
    size_t fullSchedules = 0;

    /** Evaluated points served by model replay of a cached schedule. */
    size_t replays = 0;
    /** @} */
};

/**
 * Evaluates planned points through a SweepEngine, streaming results.
 *
 * Each application a spec names is generated (builtin) or parsed
 * (QASM) once per runner, and lowered once, on the first point that
 * needs the lowered circuit. With a result store a point is keyed
 * from its source circuit (ResultStore::loweredCircuitDigest), so only
 * a miss or a `--cache-verify` hit lowers: a fully warm rerun lowers
 * nothing. Points are evaluated in batches (each batch one engine.run
 * call, so a batch rides the worker pool) and emitted strictly in
 * input order. Results are bit-identical for any worker count and
 * batch size.
 */
class SweepSpecRunner
{
  public:
    explicit SweepSpecRunner(SweepEngine &engine);

    /**
     * Evaluate points[skip..points.size()) in order.
     *
     * Without @p policy.keepGoing the first failure propagates as an
     * exception (nothing after it is evaluated). With it, a failed
     * point — whether its circuit fails to load or its toolflow run
     * throws — is emitted with a non-Ok outcome and evaluation
     * continues; successful points are byte-identical to a fault-free
     * run either way.
     *
     * @param points planned points (typically a shard slice)
     * @param skip completed points to skip (resume support)
     * @param emit called once per completed point, in input order
     * @param policy failure isolation (see SweepRunPolicy)
     * @param batch_size points per engine batch (>= 1)
     */
    SweepRunStats
    run(const std::vector<PlannedPoint> &points, size_t skip,
        const std::function<void(const SweepPoint &)> &emit,
        const SweepRunPolicy &policy,
        size_t batch_size = kDefaultBatchSize);

    /** Rethrow-first convenience overload (default policy). */
    void run(const std::vector<PlannedPoint> &points, size_t skip,
             const std::function<void(const SweepPoint &)> &emit,
             size_t batch_size = kDefaultBatchSize);

    /** Points handed to the engine per run() batch by default. */
    static constexpr size_t kDefaultBatchSize = 64;

    /** Resolve a point's lowered circuit (point.native wins when
     *  set). Public so the search layer reuses the same memo for
     *  feature extraction.
     *  @throws when the application's circuit does not load */
    std::shared_ptr<const Circuit> circuitFor(const PlannedPoint &point);

  private:
    /** One spec-named application's circuits, each made on first
     *  need: the source, its lowered digest (keys) and its lowered
     *  circuit (evaluation). */
    struct AppCircuits
    {
        Circuit source;
        std::optional<Digest128> loweredDigest;
        std::shared_ptr<const Circuit> native;
    };

    /** The memo entry of @p point's application (keyed by builtin
     *  name or "qasm:" path), loading its source on first use.
     *  @throws when the source does not load (nothing is memoized) */
    AppCircuits &appFor(const PlannedPoint &point);

    /** The digest of @p point's lowered circuit, lowering nothing;
     *  nullopt when the circuit does not load (circuitFor reports
     *  why). */
    std::optional<Digest128> loweredDigestFor(const PlannedPoint &point);

    /** Content digest of @p native, memoized per circuit object. The
     *  memo holds every circuit it names, so no other circuit can take
     *  a memoized address while the runner lives. */
    Digest128
    circuitDigestFor(const std::shared_ptr<const Circuit> &native);

    SweepEngine &engine_;
    std::map<std::string, AppCircuits> apps_;
    std::map<std::shared_ptr<const Circuit>, Digest128> digestCache_;
};

} // namespace qccd

#endif // QCCD_CORE_SWEEP_SPEC_HPP
