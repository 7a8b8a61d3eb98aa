/**
 * @file
 * Error handling for QCCDSim.
 *
 * Follows the gem5 fatal/panic distinction: user-caused conditions
 * (bad configurations, malformed input files) raise ConfigError; internal
 * invariant violations raise InternalError. Both derive from QccdError so
 * callers can catch everything from this library in one place.
 */

#ifndef QCCD_COMMON_ERROR_HPP
#define QCCD_COMMON_ERROR_HPP

#include <stdexcept>
#include <string>

namespace qccd
{

/** Base class for all errors thrown by QCCDSim. */
class QccdError : public std::runtime_error
{
  public:
    explicit QccdError(const std::string &msg) : std::runtime_error(msg) {}
};

/** The user supplied an invalid configuration or input (gem5 "fatal"). */
class ConfigError : public QccdError
{
  public:
    explicit ConfigError(const std::string &msg) : QccdError(msg) {}
};

/** An internal invariant was violated (gem5 "panic"). */
class InternalError : public QccdError
{
  public:
    explicit InternalError(const std::string &msg) : QccdError(msg) {}
};

/**
 * A cooperative watchdog deadline expired (see common/deadline.hpp).
 *
 * Distinct from ConfigError/InternalError so sweep isolation can
 * classify a runaway point as `timeout` rather than `error`: the
 * configuration may be perfectly valid, it just exceeded the budget
 * the caller gave it.
 */
class TimeoutError : public QccdError
{
  public:
    explicit TimeoutError(const std::string &msg) : QccdError(msg) {}
};

/** Out-of-line throw helpers so the inline checks stay branch-only. @{ */
[[noreturn]] void raiseConfigError(const char *msg);
[[noreturn]] void raiseInternalError(const char *msg);
/** @} */

/*
 * Checks. A check must cost nothing but its branch when it passes, so
 * its message may only be built once it has failed:
 *
 *   - a literal message goes through fatalUnless / panicUnless below,
 *     which compile to a predicted branch plus a pointer;
 *   - a composed message (`+`, std::to_string, Gate::toString, ...) is
 *     written as `if (!(ok)) throw ConfigError(msg);` (or
 *     InternalError), so the string is built on the failure path only.
 *     Checks run per gate, per token or per design point also mark the
 *     branch `[[unlikely]]`.
 *
 * The std::string overloads would build the message before the call,
 * on every success. They are deprecated, so under the tree's -Werror
 * any such call is a build break.
 */

/**
 * Throw ConfigError when a user-facing precondition fails.
 *
 * @param ok condition that must hold
 * @param msg description of the failure, shown to the user
 */
inline void
fatalUnless(bool ok, const char *msg)
{
    if (!ok) [[unlikely]]
        raiseConfigError(msg);
}

/**
 * Throw InternalError when an internal invariant fails.
 *
 * @param ok condition that must hold
 * @param msg description of the violated invariant
 */
inline void
panicUnless(bool ok, const char *msg)
{
    if (!ok) [[unlikely]]
        raiseInternalError(msg);
}

/** Eager-message overloads, kept only for perfbench/tracer.cpp, which
 *  builds outside the -Werror warning set; remove with its last call. @{ */
[[deprecated("builds the message on success; write "
             "`if (!(ok)) throw ConfigError(msg);`")]]
void fatalUnless(bool ok, const std::string &msg);
[[deprecated("builds the message on success; write "
             "`if (!(ok)) throw InternalError(msg);`")]]
void panicUnless(bool ok, const std::string &msg);
/** @} */

/*
 * Checked-build contract layer.
 *
 * `panicUnless` guards invariants cheap enough to keep in release
 * builds. Stage-boundary *audits* — full position-index walks, heap
 * shape validation, occupancy conservation sums — are O(state) per
 * call and belong only in checked builds. `QCCD_DBG_ASSERT` compiles
 * to nothing (the condition is NOT evaluated) unless the tree is
 * configured with -DQCCD_CHECKED=ON, so release binaries and their
 * golden outputs are provably unaffected.
 *
 * A failed audit throws InternalError exactly like panicUnless, so
 * checked-build failures surface through the ordinary error contract
 * (and are testable with EXPECT_THROW rather than death tests).
 */
#if defined(QCCD_CHECKED) && QCCD_CHECKED
#define QCCD_CHECKED_BUILD 1
#else
#define QCCD_CHECKED_BUILD 0
#endif

#if QCCD_CHECKED_BUILD
/** Audit @p cond (checked builds only; else not even evaluated). */
#define QCCD_DBG_ASSERT(cond, msg) ::qccd::panicUnless((cond), (msg))
/** Emit @p ... statements in checked builds only. */
#define QCCD_CHECKED_ONLY(...) __VA_ARGS__
#else
#define QCCD_DBG_ASSERT(cond, msg) static_cast<void>(0)
#define QCCD_CHECKED_ONLY(...)
#endif

/** True when this build carries the contract audits (for --build-info
 *  and the golden-check guard in scripts/check_golden.sh). */
constexpr bool
checkedBuildEnabled()
{
    return QCCD_CHECKED_BUILD != 0;
}

} // namespace qccd

#endif // QCCD_COMMON_ERROR_HPP
