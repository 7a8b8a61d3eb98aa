#include "core/resume.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "core/export.hpp"

namespace qccd
{

namespace
{

/** First @p count comma-separated fields of @p line (short if the line
 *  has fewer). Enough for the identifying columns; the quoted error
 *  field is never split. */
std::vector<std::string>
leadingFields(const std::string &line, size_t count)
{
    std::vector<std::string> fields;
    size_t pos = 0;
    while (fields.size() < count && pos <= line.size()) {
        size_t comma = line.find(',', pos);
        if (comma == std::string::npos)
            comma = line.size();
        fields.push_back(line.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return fields;
}

std::vector<std::string>
nonEmptyLines(const std::string &content)
{
    std::vector<std::string> lines;
    std::istringstream in(content);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** "app,topology,capacity" of the planned point, for row checks. */
std::string
plannedKey(const PlannedPoint &point)
{
    return point.application + "," + point.design.topologyLabel() + "," +
           std::to_string(point.design.trapCapacity);
}

std::string
rowKey(const std::vector<std::string> &fields)
{
    std::string key;
    for (const std::string &f : fields)
        key += (key.empty() ? "" : ",") + f;
    return key;
}

} // namespace

std::string
loadHealedLines(const std::string &path, bool *existed)
{
    std::ifstream in(path);
    *existed = in.good();
    if (!*existed)
        return "";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        throw ConfigError("error reading '" + path + "'");
    std::string content = buffer.str();
    in.close();

    // A run killed mid-write leaves a final line without a newline;
    // that row is incomplete, so drop it (its point is re-evaluated)
    // via atomic replace — a second kill during the heal itself leaves
    // either the old file or the healed file, never an empty one.
    const size_t last_newline = content.find_last_of('\n');
    if (!content.empty() && last_newline != content.size() - 1) {
        content.resize(
            last_newline == std::string::npos ? 0 : last_newline + 1);
        replaceTextFileAtomic(content, path);
    }
    return content;
}

ResumeState
analyzeResume(const std::string &out_path, bool with_header,
              bool keep_going, const SweepPlan &plan, size_t first,
              size_t last)
{
    ResumeState state;

    bool csv_existed = false;
    const std::string csv = loadHealedLines(out_path, &csv_existed);
    std::vector<std::string> csv_lines = nonEmptyLines(csv);
    state.csvEmpty = csv_lines.empty();
    if (with_header && !csv_lines.empty()) {
        if (csv_lines.front() != sweepCsvHeader())
            throw ConfigError("cannot resume '" + out_path +
                              "': its header does not match the sweep "
                              "CSV format");
        csv_lines.erase(csv_lines.begin());
    }
    state.csvRows = csv_lines.size();

    // The sidecar records the failed points of earlier --keep-going
    // passes; its rows are part of the completed prefix.
    const std::string errors_path = out_path + ".errors";
    bool errors_existed = false;
    const std::string errors =
        loadHealedLines(errors_path, &errors_existed);
    std::vector<std::string> error_lines = nonEmptyLines(errors);
    if (!error_lines.empty()) {
        if (error_lines.front() != sweepErrorsHeader())
            throw ConfigError("cannot resume '" + out_path +
                              "': sidecar '" + errors_path +
                              "' does not have the .errors header");
        error_lines.erase(error_lines.begin());
    }
    if (!error_lines.empty() && !keep_going)
        throw ConfigError("cannot resume '" + out_path + "': '" +
                          errors_path +
                          "' records failed points; rerun with "
                          "--keep-going");
    if (!error_lines.empty() && state.csvEmpty && with_header &&
        !csv_existed)
        throw ConfigError("cannot resume '" + out_path +
                          "': the CSV is missing but its .errors sidecar "
                          "records failures");

    for (const std::string &line : error_lines) {
        const std::vector<std::string> fields = leadingFields(line, 4);
        if (fields.size() != 4)
            throw ConfigError("cannot resume '" + out_path +
                              "': malformed sidecar row '" + line + "'");
        size_t absolute = 0;
        const char *begin = fields[0].data();
        const char *end = begin + fields[0].size();
        const auto [ptr, ec] = std::from_chars(begin, end, absolute);
        if (ec != std::errc() || ptr != end)
            throw ConfigError("cannot resume '" + out_path +
                              "': sidecar row index '" + fields[0] +
                              "' is not a number");
        if (absolute < first || absolute >= last)
            throw ConfigError("cannot resume '" + out_path +
                              "': sidecar index " + fields[0] +
                              " is outside this sweep shard's points");
        if (!state.failedIndices.empty() &&
            absolute <= state.failedIndices.back())
            throw ConfigError("cannot resume '" + out_path +
                              "': sidecar indices are not strictly "
                              "increasing");
        const std::string expect = plannedKey(plan.point(absolute));
        const std::string got =
            rowKey({fields[1], fields[2], fields[3]});
        if (got != expect)
            throw ConfigError("cannot resume '" + out_path +
                              "': sidecar row (" + got +
                              ") does not match the planned point (" +
                              expect + ") at index " + fields[0]);
        state.failedIndices.push_back(absolute);
    }

    state.done = state.csvRows + state.failedIndices.size();
    if (state.done > last - first)
        throw ConfigError("cannot resume '" + out_path +
                          "': it has more rows than this sweep produces");

    // Verify the completed prefix row by row: every plan point up to
    // `first + done` must appear either as the next CSV data row or as
    // a recorded failure — a header-compatible CSV from a different
    // sweep (or the wrong shard) fails here instead of merging.
    size_t next_csv = 0;
    size_t next_failed = 0;
    for (size_t i = first; i < first + state.done; ++i) {
        if (next_failed < state.failedIndices.size() &&
            state.failedIndices[next_failed] == i) {
            ++next_failed; // verified against the sidecar above
            continue;
        }
        if (next_csv >= csv_lines.size()) [[unlikely]]
            throw ConfigError("cannot resume '" + out_path +
                              "': recorded failures extend past the "
                              "completed rows");
        const std::vector<std::string> fields =
            leadingFields(csv_lines[next_csv], 3);
        const std::string expect = plannedKey(plan.point(i));
        const std::string got = rowKey(fields);
        if (got != expect) [[unlikely]]
            throw ConfigError("cannot resume '" + out_path + "': row " +
                              std::to_string(next_csv + 1) + " (" + got +
                              ") does not match the planned point (" +
                              expect +
                              ") — is this the right sweep and shard?");
        ++next_csv;
    }
    return state;
}

} // namespace qccd
