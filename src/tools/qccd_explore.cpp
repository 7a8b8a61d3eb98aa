/**
 * @file
 * Command-line driver for the QCCDSim toolflow.
 *
 * Usage:
 *   qccd_explore [--app NAME | --qasm FILE] [--topology SPEC]
 *                [--capacity N] [--gate AM1|AM2|PM|FM]
 *                [--reorder GS|IS] [--buffer N] [--decompose]
 *                [--trace N] [--list]
 *   qccd_explore --sweep FILE [--out FILE] [--format csv|json]
 *                [--shard I/N] [--resume] [--jobs N] [--keep-going]
 *                [--max-errors N] [--point-timeout-ms N]
 *                [--cache FILE] [--cache-verify]
 *   qccd_explore --search FILE [--search-budget N] [--search-seed N]
 *                [--search-report FILE] [--jobs N]
 *                [--point-timeout-ms N] [--cache FILE] [--cache-verify]
 *
 * Exit codes: 0 success, 1 error, 2 usage, 3 sweep completed but at
 * least one point failed (--keep-going; see README "Failure
 * semantics").
 *
 * Examples:
 *   qccd_explore --app qft --topology linear:6 --capacity 22 --gate FM
 *   qccd_explore --qasm mycircuit.qasm --topology grid:2x3 --capacity 20
 *   qccd_explore --sweep examples/sweeps/fig6.sweep
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <sys/auxv.h>

#include "arch/builders.hpp"
#include "benchgen/benchgen.hpp"
#include "circuit/qasm/parser.hpp"
#include "circuit/stats.hpp"
#include "common/error.hpp"
#include "compiler/mapping.hpp"
#include "core/export.hpp"
#include "core/recommend.hpp"
#include "core/report.hpp"
#include "core/result_store.hpp"
#include "core/resume.hpp"
#include "core/search.hpp"
#include "core/sweep_engine.hpp"
#include "core/sweep_spec.hpp"
#include "core/toolflow.hpp"
#include "sim/analysis.hpp"
#include "sim/checker.hpp"
#include "sim/isa.hpp"

namespace
{

using namespace qccd;

void
printUsage()
{
    std::cout <<
        "qccd_explore - QCCD trapped-ion design toolflow\n"
        "\n"
        "  --app NAME        benchmark application (see --list)\n"
        "  --qasm FILE       OpenQASM 2.0 circuit file instead of --app\n"
        "  --topology SPEC   device spec: any registered family (see\n"
        "                    --topologies) or topo:FILE (default linear:6)\n"
        "  --topo FILE       load a .topo device file (= --topology\n"
        "                    topo:FILE; see README for the format)\n"
        "  --capacity N      ions per trap (default 22)\n"
        "  --gate IMPL       AM1 | AM2 | PM | FM (default FM)\n"
        "  --reorder METHOD  GS | IS (default GS)\n"
        "  --buffer N        buffer slots per trap (default 2)\n"
        "  --policy P        mapping policy: packed | balanced\n"
        "  --decompose       report compute/communication time split\n"
        "  --trace N         dump the first N scheduled primitives\n"
        "  --analyze         print per-resource utilization report\n"
        "  --emit-isa FILE   write the compiled QCCD executable\n"
        "  --recommend       rank the paper's design space for the app\n"
        "  --jobs N          worker threads for --sweep / --recommend\n"
        "                    (default: QCCD_JOBS env, then all cores)\n"
        "  --list            list available benchmark applications\n"
        "  --topologies      list registered topology families\n"
        "  --build-info      print build provenance: checked contracts,\n"
        "                    cache schema, FP contraction, link mode\n"
        "\n"
        "Declarative sweeps (see examples/sweeps/ and README):\n"
        "  --sweep FILE      run a .sweep design-space specification\n"
        "  --out FILE        output path (default <spec name>.csv)\n"
        "  --format F        csv | json (default from --out extension)\n"
        "  --shard I/N       evaluate the I-th of N contiguous slices;\n"
        "                    concatenating the N outputs in order is\n"
        "                    byte-identical to the unsharded run\n"
        "  --resume          append to --out, skipping completed rows\n"
        "  --keep-going      isolate failed points: record each in\n"
        "                    <out>.errors and keep sweeping; exit 3 if\n"
        "                    any point failed (CSV output only)\n"
        "  --max-errors N    stop launching new work after N failed\n"
        "                    points and exit 1 (implies --keep-going)\n"
        "  --point-timeout-ms N\n"
        "                    per-point watchdog deadline; a point that\n"
        "                    exceeds it fails with outcome 'timeout'\n"
        "                    (overrides the spec's point_timeout_ms)\n"
        "  --cache FILE      persistent result store: points already\n"
        "                    in it are answered without re-simulating,\n"
        "                    new results are appended (byte-identical\n"
        "                    output either way; overrides the spec's\n"
        "                    \"cache\" option — see README)\n"
        "  --cache-verify    audit the cache: recompute every hit and\n"
        "                    report divergence (exit 1 if any)\n"
        "\n"
        "Surrogate-guided search (see README \"Design-space search\"):\n"
        "  --search FILE     find the best point of a .sweep space by\n"
        "                    successive halving over a cost-model\n"
        "                    ranking, really simulating only a budget\n"
        "                    of points (default: a quarter of the\n"
        "                    space); prints the winner and writes an\n"
        "                    audit CSV of every real evaluation whose\n"
        "                    rows are byte-identical to --sweep's\n"
        "  --search-budget N real evaluations to spend (overrides the\n"
        "                    spec's \"search\" block)\n"
        "  --search-seed N   calibration-sampling seed (overrides the\n"
        "                    spec; same seed => same winner and rows)\n"
        "  --search-report FILE\n"
        "                    audit CSV path (default <name>.search.csv)\n"
        "                    (--jobs, --cache, --cache-verify and\n"
        "                    --point-timeout-ms apply as in --sweep)\n";
}

/**
 * Whether this build fuses a*b+c into one rounding (a contracted FMA).
 * With a = b = 1+2^-30 the exact product is 1+2^-29+2^-60; unfused, it
 * rounds to 1+2^-29 and the sum with c = -(1+2^-29) is 0, while
 * std::fma keeps the 2^-60. Every target compiles with the same
 * -ffp-contract (CMakeLists.txt), so this TU speaks for the library.
 */
bool
fpContractEnabled()
{
    volatile double a = 1.0 + 0x1p-30;
    volatile double b = a;
    volatile double c = -(1.0 + 0x1p-29);
    return a * b + c == std::fma(a, b, c);
}

/** The flags --sweep and --search share; --jobs and
 *  --point-timeout-ms also reach --recommend and single runs. */
struct RunCliOptions
{
    int jobs = 0;           // 0: QCCD_JOBS env, then all cores
    int pointTimeoutMs = 0; // 0: no override
    std::string cachePath;  // empty: spec option, then no cache
    bool cacheVerify = false;
};

/** Parse @p file, with --point-timeout-ms on every point: set on each
 *  grid's base, since no axis sets the timeout. */
SweepPlan
loadPlan(const std::string &file, const RunCliOptions &run)
{
    SweepPlan plan = parseSweepPlanFile(file);
    if (run.pointTimeoutMs > 0)
        for (SweepGrid &grid : plan.grids)
            grid.base().options.pointTimeoutMs = run.pointTimeoutMs;
    return plan;
}

/**
 * Open the run's result store. --cache wins over the "cache" paths the
 * spec declares on the grids holding points of the evaluated range
 * [@p first, @p last), and two different declared paths are refused
 * rather than guessed between. Refusals of the file itself (wrong
 * magic, version skew, a live lock owner) are ConfigErrors and abort
 * the run; anything else, an I/O failure or an injected cache.open
 * fault, degrades to a cold run, which by contract produces the same
 * bytes. Null: no store.
 */
std::unique_ptr<ResultStore>
openRunStore(const RunCliOptions &run, const SweepPlan &plan, size_t first,
             size_t last)
{
    std::string path = run.cachePath;
    size_t grid_first = 0;
    for (const SweepGrid &grid : plan.grids) {
        const size_t grid_last = grid_first + grid.size();
        const std::string &declared = grid.base().options.cachePath;
        if (run.cachePath.empty() && !declared.empty() &&
            grid_first < last && first < grid_last) {
            if (!path.empty() && path != declared)
                throw ConfigError("sweep spec declares conflicting cache "
                                  "paths ('" + path + "' vs '" +
                                  declared +
                                  "'); use one, or override with --cache");
            path = declared;
        }
        grid_first = grid_last;
    }
    fatalUnless(!run.cacheVerify || !path.empty(),
                "--cache-verify requires a result store (--cache FILE "
                "or the spec's \"cache\" option)");
    if (path.empty())
        return nullptr;
    try {
        return std::make_unique<ResultStore>(path);
    } catch (const ConfigError &) {
        throw;
    } catch (const std::exception &err) {
        std::cerr << "warning: result cache disabled (open failed: "
                  << err.what() << "); continuing without it\n";
        return nullptr;
    }
}

/** One greppable provenance line per cached run ("^cache:"):
 *  check_golden.sh uses it to refuse blessing goldens from a warm run,
 *  and the CI cache job asserts hit/miss counts. */
void
printCacheLine(const ResultStore *store, bool verify, size_t divergent)
{
    if (store == nullptr)
        return;
    const ResultStoreStats &cs = store->stats();
    std::cout << "cache: " << store->path() << " hits=" << cs.hits
              << " misses=" << cs.misses << " inserts=" << cs.inserts
              << " loaded=" << cs.loaded
              << " quarantined=" << cs.quarantined
              << " healed=" << (cs.healedTail ? 1 : 0);
    if (verify)
        std::cout << " divergent=" << divergent;
    std::cout << "\n";
}

/** Greppable staged-evaluation provenance ("^staged:"): how many
 *  points paid a full schedule vs. rode a model-log replay. */
void
printStagedLine(const SweepRunStats &stats)
{
    std::cout << "staged: " << stats.fullSchedules << " full, "
              << stats.replays << " replayed\n";
}

/** Greppable search provenance ("^search:"): CI asserts evaluated
 *  stays within the budget fraction of the declared space. */
void
printSearchLine(const SearchStats &stats)
{
    std::cout << "search: space=" << stats.space
              << " budget=" << stats.budget
              << " evaluated=" << stats.evaluated
              << " calibration=" << stats.calibration
              << " rungs=" << stats.rungs << "\n";
}

/** Report @p divergent cache records as an error; true if any. */
bool
cacheDiverged(const ResultStore *store, size_t divergent)
{
    if (divergent == 0)
        return false;
    std::cerr << "error: result cache '" << store->path() << "' has "
              << divergent
              << " divergent record(s); the emitted rows are the "
                 "recomputed ones — rebuild the cache file\n";
    return true;
}

/** Everything --sweep mode needs beyond RunCliOptions. */
struct SweepCliOptions
{
    std::string outFile;
    std::string formatName;
    std::string shardText;
    bool resume = false;
    bool keepGoing = false;
    int maxErrors = 0; // 0: unlimited
};

int
runSweepMode(const std::string &sweep_file, const SweepCliOptions &cli,
             const RunCliOptions &run)
{
    const SweepPlan plan = loadPlan(sweep_file, run);
    std::string out_file = cli.outFile;

    ExportFormat format = ExportFormat::Csv;
    if (!cli.formatName.empty())
        format = exportFormatFromName(cli.formatName);
    else if (out_file.size() >= 5 &&
             out_file.compare(out_file.size() - 5, 5, ".json") == 0)
        format = ExportFormat::Json;

    SweepShard shard;
    if (!cli.shardText.empty())
        shard = parseShard(cli.shardText);
    if (out_file.empty()) {
        // Sharded runs get distinct default names: with a shared
        // default, shard 1 would truncate shard 0's freshly written
        // output in the same directory.
        std::string stem = plan.name;
        if (shard.count > 1)
            stem += ".shard" + std::to_string(shard.index) + "of" +
                    std::to_string(shard.count);
        out_file =
            stem + (format == ExportFormat::Csv ? ".csv" : ".json");
    }
    fatalUnless(format == ExportFormat::Csv || shard.count == 1,
                "--shard requires CSV output");
    fatalUnless(format == ExportFormat::Csv || !cli.resume,
                "--resume requires CSV output");
    fatalUnless(format == ExportFormat::Csv || !cli.keepGoing,
                "--keep-going requires CSV output (the .errors "
                "sidecar is CSV)");

    const size_t total = plan.size();
    const auto [first, last] = shardRange(total, shard.index, shard.count);
    const std::unique_ptr<ResultStore> store =
        openRunStore(run, plan, first, last);

    // Shard 0 owns the header so that concatenating shard files in
    // index order reproduces the unsharded export byte-for-byte.
    const bool with_header = shard.index == 0;
    const std::string errors_path = out_file + ".errors";
    ResumeState state;
    if (cli.resume)
        state = analyzeResume(out_file, with_header, cli.keepGoing, plan,
                              first, last);
    else
        std::remove(errors_path.c_str()); // stale sidecar of an old run
    const size_t done = state.done;

    std::cout << "sweep " << plan.name << ": " << total << " points";
    if (shard.count > 1)
        std::cout << ", shard " << shard.index << "/" << shard.count
                  << " covers [" << first << ", " << last << ")";
    if (done > 0)
        std::cout << ", resuming past " << done << " completed points";
    std::cout << ", " << SweepEngine::resolveJobs(run.jobs)
              << " workers\n";

    // An empty range (more shards than points) is not complete: it
    // still opens its output, so shard 0 writes the header.
    size_t failures_total = state.failedIndices.size();
    if (done > 0 && done == last - first) {
        std::cout << out_file << " is already complete ("
                  << state.csvRows << " rows";
        if (failures_total > 0)
            std::cout << ", " << failures_total << " failed";
        std::cout << ")\n";
        return failures_total > 0 ? 3 : 0;
    }

    // Append whenever the healed file holds anything worth keeping —
    // including a bare header with zero data rows (a run killed right
    // after the header write); truncating then would drop the header
    // while the writer, seeing csvEmpty == false, skips rewriting it.
    const bool append = done > 0 || !state.csvEmpty;
    std::ofstream out(out_file,
                      append ? std::ios::app : std::ios::trunc);
    if (!out.good())
        throw ConfigError("cannot write file '" + out_file + "'");
    SweepRowWriter writer(out, format,
                          with_header && state.csvEmpty,
                          state.csvRows);

    // The sidecar is created lazily on the first failure, so a
    // fault-free --keep-going run leaves no .errors file at all.
    std::ofstream errors_out;
    const bool sidecar_exists = !state.failedIndices.empty();
    auto recordFailure = [&](size_t index, const SweepPoint &point) {
        if (!errors_out.is_open()) {
            errors_out.open(errors_path, sidecar_exists
                                             ? std::ios::app
                                             : std::ios::trunc);
            if (!errors_out.good())
                throw ConfigError("cannot write file '" + errors_path +
                                  "'");
            if (!sidecar_exists)
                errors_out << sweepErrorsHeader() << '\n';
        }
        // One flushed line per failure, same crash-safety contract as
        // the data CSV: a kill tears at most the final line.
        errors_out << sweepErrorRow(index, point) << '\n';
        errors_out.flush();
        if (!errors_out.good())
            throw ConfigError("error writing '" + errors_path + "'");
        ++failures_total;
    };

    SweepEngine engine(run.jobs);
    SweepSpecRunner runner(engine);
    SweepRunPolicy policy;
    policy.keepGoing = cli.keepGoing;
    policy.maxErrors = static_cast<size_t>(cli.maxErrors);
    policy.cache = store.get();
    policy.cacheVerify = run.cacheVerify;
    const SweepRunStats stats =
        runner.run(plan, indexRange(first + done, last),
                   [&](size_t index, const SweepPoint &point) {
                       if (point.ok())
                           writer.write(point);
                       else
                           recordFailure(index, point);
                   },
                   policy);
    writer.finish();

    printStagedLine(stats);
    printCacheLine(store.get(), run.cacheVerify, stats.cacheDivergent);
    if (cacheDiverged(store.get(), stats.cacheDivergent))
        return 1;

    if (stats.aborted) {
        std::cerr << "error: stopping after " << stats.failed
                  << " failed point(s) (--max-errors "
                  << cli.maxErrors << "); "
                  << (last - first - done - stats.evaluated)
                  << " point(s) not evaluated\n";
        return 1;
    }

    std::cout << "wrote " << (stats.evaluated - stats.failed)
              << " rows to " << out_file;
    if (failures_total > 0)
        std::cout << " (" << failures_total << " failed, see "
                  << errors_path << ")";
    std::cout << "\n";
    return failures_total > 0 ? 3 : 0;
}

/** Everything --search mode needs beyond RunCliOptions. */
struct SearchCliOptions
{
    std::string reportFile;
    size_t budget = 0; // 0: spec "search" block, then space/4
    bool haveSeed = false;
    uint64_t seed = 0;
};

int
runSearchMode(const std::string &search_file, const SearchCliOptions &cli,
              const RunCliOptions &run)
{
    const SweepPlan plan = loadPlan(search_file, run);
    const std::unique_ptr<ResultStore> store =
        openRunStore(run, plan, 0, plan.size());

    SearchOptions options;
    options.budget = cli.budget != 0 ? cli.budget : plan.search.budget;
    options.seed = cli.haveSeed ? cli.seed : plan.search.seed;
    options.eta = plan.search.eta;
    options.policy.cache = store.get();
    options.policy.cacheVerify = run.cacheVerify;

    SweepEngine engine(run.jobs);
    SearchEngine search(engine);

    // Open the audit CSV before spending any budget: an unwritable
    // report path must fail fast, not after the search ran.
    const std::string report_file = cli.reportFile.empty()
                                        ? plan.name + ".search.csv"
                                        : cli.reportFile;
    std::ofstream report(report_file, std::ios::trunc);
    if (!report.good())
        throw ConfigError("cannot write file '" + report_file + "'");

    std::cout << "search " << plan.name << ": " << plan.size()
              << " points, "
              << SweepEngine::resolveJobs(run.jobs) << " workers\n";

    const SearchOutcome outcome = search.run(plan, options);

    // The audit CSV: header + one --sweep-identical row per real
    // evaluation, ascending by spec index.
    SweepRowWriter writer(report, ExportFormat::Csv);
    for (const SearchEvaluation &ev : outcome.evaluations)
        if (ev.point.ok())
            writer.write(ev.point);
    writer.finish();

    const SearchStats &stats = outcome.stats;
    printStagedLine(stats.run);
    printCacheLine(store.get(), run.cacheVerify, stats.run.cacheDivergent);
    printSearchLine(stats);
    fatalUnless(outcome.haveWinner, "search produced no result");
    std::cout << "winner: " << sweepCsvRow(outcome.winner) << "\n";
    std::cout << "wrote " << writer.rowsWritten() << " rows to "
              << report_file << "\n";

    return cacheDiverged(store.get(), stats.run.cacheDivergent) ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qccd;

    std::string app = "qft";
    std::string qasm_file;
    DesignPoint design;
    RunOptions options;
    int trace_ops = 0;
    bool analyze = false;
    bool recommend = false;
    std::string isa_file;
    RunCliOptions run_cli;
    std::string sweep_file;
    SweepCliOptions sweep_cli;
    std::string search_file;
    SearchCliOptions search_cli;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw ConfigError("missing value for " + arg);
                return argv[++i];
            };
            auto intValue = [&]() -> int {
                const std::string text = value();
                try {
                    size_t used = 0;
                    const int parsed = std::stoi(text, &used);
                    if (used != text.size())
                        throw ConfigError("expected an integer for " + arg +
                                          ", got '" + text + "'");
                    return parsed;
                } catch (const QccdError &) {
                    throw;
                } catch (const std::exception &) {
                    throw ConfigError("expected an integer for " + arg +
                                      ", got '" + text + "'");
                }
            };
            if (arg == "--help" || arg == "-h") {
                printUsage();
                return 0;
            } else if (arg == "--build-info") {
                // Machine-readable build provenance. check_golden.sh
                // refuses to bless goldens from a checked build: the
                // contract layer must be provably compiled out of any
                // binary whose output is compared byte-for-byte.
                // The cache schema line lets scripts prove which
                // result-store format a binary speaks before trusting
                // its warm runs. fp-contract and link are measured,
                // not restated from CMake: the kernel passes AT_BASE
                // = 0 when no program interpreter was loaded.
                std::cout << "checked-contracts="
                          << (checkedBuildEnabled() ? "on" : "off")
                          << "\n"
                          << "cache-schema="
                          << ResultStore::kSchemaVersion << "\n"
                          << "fp-contract="
                          << (fpContractEnabled() ? "on" : "off") << "\n"
                          << "link="
                          << (getauxval(AT_BASE) == 0 ? "static"
                                                      : "dynamic")
                          << "\n";
                return 0;
            } else if (arg == "--list") {
                for (const BenchmarkSpec &spec : benchmarkList())
                    std::cout << spec.name << " - " << spec.description
                              << "\n";
                return 0;
            } else if (arg == "--topologies") {
                for (const TopologyFamily &family : topologyFamilies()) {
                    std::cout << family.grammar;
                    if (family.shortForm != 0)
                        std::cout << " (short: " << family.shortForm
                                  << "...)";
                    std::cout << " - " << family.description << "\n";
                }
                std::cout << "topo:FILE - custom .topo device graph "
                             "(see README)\n";
                return 0;
            } else if (arg == "--app") {
                app = value();
            } else if (arg == "--qasm") {
                qasm_file = value();
            } else if (arg == "--topology") {
                design.topologySpec = value();
            } else if (arg == "--topo") {
                design.topologySpec = "topo:" + value();
            } else if (arg == "--capacity") {
                design.trapCapacity = intValue();
            } else if (arg == "--gate") {
                design.hw.gateImpl = gateImplFromName(value());
            } else if (arg == "--reorder") {
                design.hw.reorder = reorderMethodFromName(value());
            } else if (arg == "--buffer") {
                design.hw.bufferSlots = intValue();
            } else if (arg == "--policy") {
                const std::string p = value();
                if (p == "packed") {
                    options.mappingPolicy = MappingPolicy::Packed;
                } else if (p == "balanced") {
                    options.mappingPolicy = MappingPolicy::Balanced;
                } else {
                    throw ConfigError("unknown mapping policy '" + p +
                                      "' (expected packed or balanced)");
                }
            } else if (arg == "--analyze") {
                analyze = true;
            } else if (arg == "--recommend") {
                recommend = true;
            } else if (arg == "--jobs") {
                run_cli.jobs = intValue();
                fatalUnless(run_cli.jobs >= 1,
                            "--jobs must be at least 1");
            } else if (arg == "--emit-isa") {
                isa_file = value();
            } else if (arg == "--sweep") {
                sweep_file = value();
            } else if (arg == "--search") {
                search_file = value();
            } else if (arg == "--search-budget") {
                const int budget = intValue();
                fatalUnless(budget >= 1,
                            "--search-budget must be at least 1");
                search_cli.budget = static_cast<size_t>(budget);
            } else if (arg == "--search-seed") {
                const std::string text = value();
                uint64_t seed = 0;
                const auto [p, ec] = std::from_chars(
                    text.data(), text.data() + text.size(), seed);
                if (ec != std::errc() || p != text.data() + text.size())
                    throw ConfigError("expected a non-negative integer for "
                                      "--search-seed, got '" + text + "'");
                search_cli.seed = seed;
                search_cli.haveSeed = true;
            } else if (arg == "--search-report") {
                search_cli.reportFile = value();
                fatalUnless(!search_cli.reportFile.empty(),
                            "--search-report needs a file path");
            } else if (arg == "--out") {
                sweep_cli.outFile = value();
            } else if (arg == "--format") {
                sweep_cli.formatName = value();
            } else if (arg == "--shard") {
                sweep_cli.shardText = value();
            } else if (arg == "--resume") {
                sweep_cli.resume = true;
            } else if (arg == "--keep-going") {
                sweep_cli.keepGoing = true;
            } else if (arg == "--max-errors") {
                sweep_cli.maxErrors = intValue();
                fatalUnless(sweep_cli.maxErrors >= 1,
                            "--max-errors must be at least 1");
                sweep_cli.keepGoing = true;
            } else if (arg == "--point-timeout-ms") {
                run_cli.pointTimeoutMs = intValue();
                fatalUnless(run_cli.pointTimeoutMs >= 1,
                            "--point-timeout-ms must be at least 1");
            } else if (arg == "--cache") {
                run_cli.cachePath = value();
                fatalUnless(!run_cli.cachePath.empty(),
                            "--cache needs a file path");
            } else if (arg == "--cache-verify") {
                run_cli.cacheVerify = true;
            } else if (arg == "--decompose") {
                options.decomposeRuntime = true;
            } else if (arg == "--trace") {
                trace_ops = intValue();
                fatalUnless(trace_ops >= 1,
                            "--trace must be at least 1");
            } else {
                std::cerr << "unknown option " << arg << "\n";
                printUsage();
                return 2;
            }
        }

        fatalUnless(sweep_file.empty() || search_file.empty(),
                    "use either --sweep or --search, not both");
        fatalUnless(search_file.empty() || !recommend,
                    "use either --search or --recommend, not both");
        fatalUnless(!search_file.empty() ||
                        (search_cli.budget == 0 &&
                         !search_cli.haveSeed &&
                         search_cli.reportFile.empty()),
                    "--search-budget/--search-seed/--search-report "
                    "require --search");
        if (!sweep_file.empty())
            return runSweepMode(sweep_file, sweep_cli, run_cli);
        if (!search_file.empty()) {
            // Exhaustive-output plumbing makes no sense under a
            // budgeted search; the audit CSV replaces --out.
            fatalUnless(sweep_cli.outFile.empty() &&
                            sweep_cli.formatName.empty() &&
                            sweep_cli.shardText.empty() &&
                            !sweep_cli.resume && !sweep_cli.keepGoing &&
                            sweep_cli.maxErrors == 0,
                        "--out/--format/--shard/--resume/--keep-going/"
                        "--max-errors require --sweep");
            return runSearchMode(search_file, search_cli, run_cli);
        }
        fatalUnless(sweep_cli.outFile.empty() &&
                        sweep_cli.formatName.empty() &&
                        sweep_cli.shardText.empty() &&
                        !sweep_cli.resume && !sweep_cli.keepGoing &&
                        sweep_cli.maxErrors == 0 &&
                        run_cli.cachePath.empty() && !run_cli.cacheVerify,
                    "--out/--format/--shard/--resume/--keep-going/"
                    "--max-errors/--cache/--cache-verify require "
                    "--sweep");

        // The watchdog also guards single-point runs: a hung schedule
        // becomes a clean TimeoutError instead of a stuck process.
        if (run_cli.pointTimeoutMs > 0)
            options.pointTimeoutMs = run_cli.pointTimeoutMs;

        const Circuit circuit = qasm_file.empty()
                                    ? makeBenchmark(app)
                                    : qasm::parseFile(qasm_file);
        const std::string name =
            qasm_file.empty() ? app : circuit.name();

        const CircuitStats stats = computeStats(circuit);
        std::cout << "circuit: " << circuit.name() << " ("
                  << stats.numQubits << " qubits, "
                  << stats.twoQubitGates << " 2q gates, pattern: "
                  << stats.patternLabel() << ")\n";

        if (recommend) {
            // Surrogate-guided: the paper's candidate space is ranked
            // by the cost model and only the predicted frontier is
            // really simulated (a quarter of the fitting candidates),
            // through the same SearchEngine as --search. Every
            // candidate carries the run's other knobs and options.
            SweepEngine engine(run_cli.jobs);
            PlannedPoint base;
            base.application = name;
            base.native = SweepEngine::lower(circuit);
            base.design = design;
            base.options = options;
            const SweepPlan plan = CandidateSpace{}.plan(base, engine);
            std::cout << "searching " << plan.size()
                      << " candidate designs on "
                      << SweepEngine::resolveJobs(run_cli.jobs)
                      << " workers...\n";
            const SearchOutcome outcome =
                SearchEngine(engine).run(plan, {});
            std::vector<RankedDesign> ranking;
            ranking.reserve(outcome.evaluations.size());
            for (const SearchEvaluation &ev : outcome.evaluations)
                ranking.emplace_back(ev.point.design, ev.point.result);
            std::stable_sort(ranking.begin(), ranking.end(),
                             RankedDesign::before);
            printSearchLine(outcome.stats);
            std::cout << rankingTable(ranking, 10);
            std::cout << "recommended: "
                      << outcome.winner.design.label() << "\n";
            return 0;
        }

        if (analyze || !isa_file.empty()) {
            // Thread the run options through: --policy must shape the
            // analyzed schedule and --point-timeout-ms must guard it,
            // exactly as they do on the metrics path.
            const ScheduleResult detail =
                runToolflowDetailed(circuit, design, options);
            std::cout << summarizeRun(name, design,
                                      RunResult{detail.metrics, 0})
                      << "\n";
            if (analyze) {
                std::cout << "\n"
                          << analyzeTrace(detail.trace,
                                          design.buildTopology())
                                 .report();
            }
            if (!isa_file.empty()) {
                writeIsaFile(detail.trace, isa_file);
                std::cout << "wrote " << detail.trace.size()
                          << " primitives to " << isa_file << "\n";
            }
            return 0;
        }

        if (trace_ops > 0) {
            const ScheduleResult detail =
                runToolflowDetailed(circuit, design, options);
            std::cout << summarizeRun(name, design,
                                      RunResult{detail.metrics, 0})
                      << "\n\n"
                      << dumpTrace(detail.trace,
                                   static_cast<size_t>(trace_ops));
            const CheckReport check =
                checkTrace(detail.trace, design.buildTopology());
            std::cout << "trace invariants: "
                      << (check.ok ? "ok" : "VIOLATED") << "\n";
            for (const std::string &v : check.violations)
                std::cout << "  " << v << "\n";
            return check.ok ? 0 : 1;
        }

        const RunResult result = runToolflow(circuit, design, options);
        std::cout << summarizeRun(name, design, result) << "\n";
        if (options.decomposeRuntime) {
            std::cout << "  compute time:       "
                      << result.computeOnlyTime / kSecondUs << " s\n"
                      << "  communication time: "
                      << result.communicationTime() / kSecondUs << " s\n";
        }
        return 0;
    } catch (const QccdError &err) {
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    }
}
