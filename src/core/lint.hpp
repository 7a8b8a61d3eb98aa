/**
 * @file
 * `qccd_lint`: static validation of the explorer's file artifacts —
 * `.sweep` design-space specs, `.topo` device graphs, and the
 * committed `golden/` CSVs — without running the simulator.
 *
 * The sweep runner and topo loader already reject malformed input with
 * positioned ConfigErrors, but they stop at the first problem and some
 * contradictions (an application that cannot fit any swept device, a
 * golden CSV whose row count no longer matches its spec's expanded
 * grid) only surface points-deep into a run or as a CI golden diff.
 * The linter checks the artifacts purely statically, reports *every*
 * finding with `origin:line:col` diagnostics in one pass, and never
 * throws or crashes on arbitrary input — so `qccd_lint examples/
 * golden/` can gate CI cheaply before any simulation happens.
 *
 * Checks (stable diagnostic codes in brackets):
 *  - `.sweep`, the spec parser's own schema (core/sweep_spec.hpp), run
 *    in its collecting mode so each rule has one text in both tools:
 *    syntax [parse], unknown spec/grid/search/option/param keys
 *    [unknown-key, unknown-option, unknown-param], wrong value kinds
 *    [bad-kind], missing or bad keys [missing-name, bad-name,
 *    missing-sweeps, missing-apps, bad-search, bad-option], empty axes
 *    [empty-axis], grids or specs beyond the expansion cap
 *    [grid-too-large], unknown applications/gates/reorders/policies
 *    [unknown-app, unknown-gate, unknown-reorder, unknown-policy], bad
 *    topology specs [bad-topology], empty `qasm:`/`topo:` paths
 *    [missing-file], capacity bounds [bad-capacity, bad-buffer], and
 *    "params" values outside their knob's kHardwareKnobs range
 *    [bad-param]; the message names the key.
 *  - `.sweep`, lint's own checks on what the parser accepted: duplicate
 *    axis values [duplicate-axis-value, warning], `qasm:`/`topo:` paths
 *    that do not resolve [missing-file], devices that fail to build
 *    [bad-topology], unreadable QASM [bad-qasm], applications that
 *    cannot fit a swept device's total capacity [app-does-not-fit],
 *    and fits that only work by shrinking the buffer (the least of the
 *    grid's "buffer" and "buffer_slots" values) [tight-fit, warning].
 *  - `.topo`: the loader's full syntax and graph validation, reported
 *    as diagnostics instead of exceptions [topo-parse, topo-graph].
 *  - `.qcache` result stores (core/result_store.hpp): magic
 *    [cache-magic], schema version [cache-version], record framing
 *    [cache-frame], checksums [cache-checksum], payload decode
 *    [cache-decode], with healable torn tails as warnings
 *    [cache-torn].
 *  - golden CSVs: header drift against sweepCsvHeader()
 *    [golden-header], truncated/empty files [golden-empty], rows with
 *    the wrong column count [golden-columns], non-numeric metric
 *    fields [golden-number].
 *  - cross-artifact (when specs and CSVs are linted together): specs
 *    with no covering golden [missing-golden], goldens no spec
 *    produces [golden-orphan, warning], and goldens whose data-row
 *    count differs from the spec's expanded point count [golden-rows].
 */

#ifndef QCCD_CORE_LINT_HPP
#define QCCD_CORE_LINT_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace qccd
{

/** How bad a finding is: errors fail CI, warnings do not. */
enum class LintSeverity
{
    Warning,
    Error
};

/** One finding, anchored to an artifact position. */
struct LintDiagnostic
{
    LintSeverity severity = LintSeverity::Error;

    /** Stable machine-readable slug, e.g. "unknown-key". */
    std::string code;

    /** Artifact path (as given to the linter). */
    std::string origin;

    /** 1-based position; 0 when the finding is file-level. @{ */
    int line = 0;
    int column = 0;
    /** @} */

    std::string message;

    /** "origin:line:col: error: message [code]" (no position when 0). */
    std::string toString() const;
};

/** Accumulated findings over one lint invocation. */
struct LintReport
{
    std::vector<LintDiagnostic> diagnostics;

    /** Artifacts inspected (files, not findings). */
    int filesChecked = 0;

    size_t errorCount() const;
    size_t warningCount() const;

    /** True when no *errors* were found (warnings do not fail). */
    bool clean() const { return errorCount() == 0; }

    /** All diagnostics, one per line (stable order: as discovered). */
    std::string toString() const;
};

/**
 * What linting learned about a spec, for cross-artifact checks.
 * `points` is the parser's point count; `expanded` is true only when
 * the spec linted without errors.
 */
struct SweepLintSummary
{
    std::string name;
    size_t points = 0;
    bool expanded = false;
};

/**
 * Lint sweep-spec text. Never throws: all findings (including parse
 * failures) are appended to @p report as diagnostics.
 *
 * @param text the spec document
 * @param origin path used in diagnostics
 * @param base_dir directory `qasm:`/`topo:` paths resolve against
 *        (empty: the current working directory)
 * @param summary optional out-param for cross-artifact checks
 */
void lintSweepText(const std::string &text, const std::string &origin,
                   const std::string &base_dir, LintReport &report,
                   SweepLintSummary *summary = nullptr);

/** Lint `.topo` device-file text (never throws). */
void lintTopoText(const std::string &text, const std::string &origin,
                  LintReport &report);

/** Lint a golden sweep-CSV's text (never throws). @p rows_out gets the
 *  data-row count for the cross-artifact row check. */
void lintGoldenText(const std::string &text, const std::string &origin,
                    LintReport &report, size_t *rows_out = nullptr);

/** Lint raw `.qcache` result-store bytes (never throws): the static
 *  half of ResultStore's open-time recovery, reported as diagnostics
 *  instead of quarantine/heal actions. */
void lintCacheBytes(const std::string &bytes, const std::string &origin,
                    LintReport &report);

/**
 * Lint files and directory trees.
 *
 * Directories are walked recursively; `.sweep`, `.topo`, `.csv` and
 * `.qcache` files are linted by kind, other files are ignored. When the
 * argument set contains both specs and CSVs, the cross-artifact
 * coverage and row-count checks run over the whole set. An unreadable
 * or nonexistent path is itself a diagnostic, not an exception.
 */
LintReport lintArtifacts(const std::vector<std::string> &paths);

} // namespace qccd

#endif // QCCD_CORE_LINT_HPP
