/**
 * @file
 * Report formatting for toolflow results: one-line run summaries.
 */

#ifndef QCCD_CORE_REPORT_HPP
#define QCCD_CORE_REPORT_HPP

#include <string>

#include "core/toolflow.hpp"

namespace qccd
{

/** One-paragraph human-readable summary of a run. */
std::string summarizeRun(const std::string &app, const DesignPoint &design,
                         const RunResult &result);

} // namespace qccd

#endif // QCCD_CORE_REPORT_HPP
