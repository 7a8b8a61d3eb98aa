/**
 * @file
 * Machine-readable export of sweep results: CSV for spreadsheets and
 * plotting scripts, JSON for structured pipelines. Every figure spec
 * dumps its raw series so the paper's plots can be regenerated with
 * any plotting tool.
 */

#ifndef QCCD_CORE_EXPORT_HPP
#define QCCD_CORE_EXPORT_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "core/sweep.hpp"

namespace qccd
{

/** Output syntax of a sweep export. */
enum class ExportFormat
{
    Csv, ///< one header line + one comma-separated row per point
    Json ///< a JSON array of objects (same fields as the CSV columns)
};

/** Parse "csv" / "json"; throws ConfigError on anything else. */
ExportFormat exportFormatFromName(const std::string &name);

/** The CSV header line (no trailing newline). Columns: application,
 *  topology, capacity, gate, reorder, time_s, compute_s, comm_s,
 *  fidelity, log_fidelity, max_energy_quanta, ms_gates, reorder_ms,
 *  shuttles, splits, merges, evictions. */
std::string sweepCsvHeader();

/** One CSV row for @p point (no trailing newline). */
std::string sweepCsvRow(const SweepPoint &point);

/** One JSON object for @p point (no surrounding array/comma). */
std::string sweepJsonRow(const SweepPoint &point);

/**
 * Header of the `<out>.errors` sidecar a --keep-going sweep writes one
 * row to per failed point (no trailing newline). Columns: index (the
 * point's absolute index in the expanded spec, stable across shards),
 * the identifying design columns, the outcome class, and the
 * diagnostic.
 */
std::string sweepErrorsHeader();

/**
 * One sidecar row for failed @p point at absolute spec index @p index
 * (no trailing newline). The diagnostic is CSV-quoted (quotes doubled,
 * newlines flattened) so the sidecar stays line-oriented — resume
 * counts and heals it exactly like the data CSV.
 */
std::string sweepErrorRow(size_t index, const SweepPoint &point);

/**
 * Streaming row writer over an ostream: the single formatting path for
 * sweep exports, shared by the batch helpers below and the declarative
 * sweep runner (qccd_explore --sweep). Rows are written as they arrive,
 * so a partial file of a killed run is valid CSV and can be resumed by
 * counting its rows.
 *
 * For byte-stable sharded output, the header is optional: shard 0
 * writes it, later shards do not, and concatenating the shard files in
 * index order reproduces the unsharded export exactly.
 */
class SweepRowWriter
{
  public:
    /**
     * @param out destination stream (kept by reference)
     * @param format CSV or JSON
     * @param with_header write the CSV header / JSON opening bracket
     * @param rows_before rows already in the destination (resumed CSV
     *        appends); used only to place JSON separators correctly
     */
    SweepRowWriter(std::ostream &out, ExportFormat format,
                   bool with_header = true, size_t rows_before = 0);

    /** Append one point (flushes the stream). */
    void write(const SweepPoint &point);

    /** Close the export (JSON array bracket; no-op for CSV). */
    void finish();

    size_t rowsWritten() const { return rows_; }

  private:
    std::ostream &out_;
    ExportFormat format_;
    size_t rows_;
    bool finished_ = false;
};

/**
 * Render sweep points as CSV (header + rows, one per point); see
 * sweepCsvHeader() for the columns.
 */
std::string toCsv(const std::vector<SweepPoint> &points);

/** Render sweep points as a JSON array of objects (same fields). */
std::string toJson(const std::vector<SweepPoint> &points);

/** Write @p text to @p path. @throws ConfigError if unwritable. */
void writeTextFile(const std::string &text, const std::string &path);

/**
 * Atomically replace @p path with @p text: the content is written to
 * `path + ".tmp"` and renamed over the destination, so a reader (or a
 * resumed run after a mid-write kill) sees either the old bytes or the
 * new bytes, never a torn mixture — and the original survives any
 * failure before the rename. @throws ConfigError if unwritable.
 */
void replaceTextFileAtomic(const std::string &text,
                           const std::string &path);

} // namespace qccd

#endif // QCCD_CORE_EXPORT_HPP
