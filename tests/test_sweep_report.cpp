/** @file Tests for report formatting. */

#include <gtest/gtest.h>

#include "core/report.hpp"

namespace qccd
{
namespace
{

TEST(Report, SummaryMentionsKeyNumbers)
{
    DesignPoint dp = DesignPoint::linear(3, 8);
    Circuit c(4, "tiny");
    c.ms(0, 1);
    c.measureAll();
    const RunResult r = runToolflow(c, dp);
    const std::string s = summarizeRun("tiny", dp, r);
    EXPECT_NE(s.find("tiny"), std::string::npos);
    EXPECT_NE(s.find("linear:3"), std::string::npos);
    EXPECT_NE(s.find("fidelity"), std::string::npos);
}

} // namespace
} // namespace qccd
