/**
 * @file
 * Crash-safe sweep resume: heal, count, and *verify* checkpoint files.
 *
 * `qccd_explore --sweep ... --resume` treats the output CSV (plus, under
 * --keep-going, its `<out>.errors` sidecar) as a durable checkpoint: the
 * process may be killed anywhere and the final bytes after resuming must
 * be indistinguishable from an uninterrupted run. Three properties make
 * that hold:
 *
 *  1. Rows are appended one fully flushed line at a time, so a kill can
 *     tear at most the final line.
 *  2. A torn final line is dropped by atomic replace (tmp + rename) —
 *     a kill during healing itself loses nothing either.
 *  3. Resumed rows are cross-checked against the plan points of the
 *     shard's index range, each decoded by its index (application /
 *     topology / capacity per row, plan indices in the sidecar), so a
 *     header-compatible CSV from a *different* sweep or shard is
 *     refused instead of silently merged.
 */

#ifndef QCCD_CORE_RESUME_HPP
#define QCCD_CORE_RESUME_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "core/sweep_spec.hpp"

namespace qccd
{

/** What --resume found in (and verified about) existing output. */
struct ResumeState
{
    /** Planned points already evaluated: CSV rows + sidecar rows. */
    size_t done = 0;

    /** Successful rows present in the data CSV. */
    size_t csvRows = 0;

    /** True when the data CSV is absent or empty (header not yet
     *  written; the resumed writer must emit it on shard 0). */
    bool csvEmpty = true;

    /** Plan indices of failed points from the sidecar, strictly
     *  ascending. */
    std::vector<size_t> failedIndices;
};

/**
 * Read @p path and heal a torn final line (a line without a trailing
 * newline, left by a kill mid-write): the file is atomically replaced
 * without the partial line, whose point will simply be re-evaluated.
 *
 * @param[out] existed set to whether the file was present
 * @return the healed content ("" when the file is missing)
 */
std::string loadHealedLines(const std::string &path, bool *existed);

/**
 * Inspect @p out_path (and its `.errors` sidecar) for a resumed run of
 * the plan indices [@p first, @p last), healing torn lines and
 * validating every recovered row against the plan point at its index.
 *
 * @param out_path the sweep's CSV output path
 * @param with_header whether this shard writes the CSV header (shard 0)
 * @param keep_going whether this resume runs under --keep-going; a
 *        sidecar with recorded failures is refused without it
 * @param plan the sweep's plan
 * @param first first plan index of this shard (sidecar rows store plan
 *        indices so they stay meaningful across shards)
 * @param last one past the shard's last plan index
 * @throws ConfigError when the checkpoint does not belong to this
 *         sweep/shard or is internally inconsistent
 */
ResumeState analyzeResume(const std::string &out_path, bool with_header,
                          bool keep_going, const SweepPlan &plan,
                          size_t first, size_t last);

} // namespace qccd

#endif // QCCD_CORE_RESUME_HPP
