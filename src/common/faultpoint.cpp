#include "common/faultpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>

#include "common/error.hpp"

namespace qccd
{

namespace
{

enum class FaultKind
{
    Throw,   ///< InternalError
    Alloc,   ///< std::bad_alloc
    Config,  ///< ConfigError
    Timeout, ///< TimeoutError
};

/** One armed site: fire at the @ref triggerAt -th hit (1-based). */
struct ArmedSite
{
    std::string site;
    unsigned long triggerAt = 0;
    FaultKind kind = FaultKind::Throw;
    std::atomic<unsigned long> hits{0};

    ArmedSite() = default;

    /** Moves happen only while arming (no concurrent hits). */
    ArmedSite(ArmedSite &&other) noexcept
        : site(std::move(other.site)), triggerAt(other.triggerAt),
          kind(other.kind), hits(other.hits.load())
    {
    }
};

/**
 * The armed campaign. Written only by setFaultInjectSpec /
 * clearFaultInject (never while workers run — arming mid-sweep is not
 * a supported shape); hit counters are atomic so concurrent workers
 * can race on them safely, with exactly one thread observing the
 * trigger count.
 */
std::vector<ArmedSite> &
armedSites()
{
    static std::vector<ArmedSite> sites;
    return sites;
}

std::mutex &
armedMutex()
{
    static std::mutex m;
    return m;
}

FaultKind
kindFromName(const std::string &name)
{
    if (name == "throw")
        return FaultKind::Throw;
    if (name == "alloc")
        return FaultKind::Alloc;
    if (name == "config")
        return FaultKind::Config;
    if (name == "timeout")
        return FaultKind::Timeout;
    throw ConfigError("unknown fault kind '" + name +
                      "' (expected throw, alloc, config or timeout)");
}

std::vector<ArmedSite>
parseSpec(const std::string &spec)
{
    std::vector<ArmedSite> sites;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string directive = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (directive.empty()) {
            if (comma == spec.size())
                break;
            throw ConfigError(
                "empty directive in fault spec '" + spec + "'");
        }

        const size_t eq = directive.find('=');
        if (eq == std::string::npos || eq == 0)
            throw ConfigError("fault directive must be SITE=N[:KIND]; got '" +
                              directive + "'");
        const std::string site = directive.substr(0, eq);
        std::string count_text = directive.substr(eq + 1);
        FaultKind kind = FaultKind::Throw;
        const size_t colon = count_text.find(':');
        if (colon != std::string::npos) {
            kind = kindFromName(count_text.substr(colon + 1));
            count_text.resize(colon);
        }

        bool known = false;
        for (const std::string &name : faultSiteNames())
            known = known || name == site;
        if (!known)
            throw ConfigError("unknown fault site '" + site +
                              "' (see faultSiteNames())");

        size_t used = 0;
        unsigned long trigger = 0;
        try {
            trigger = std::stoul(count_text, &used);
        } catch (const std::exception &) {
            used = 0;
        }
        if (used != count_text.size() || used == 0 || trigger < 1)
            throw ConfigError("fault trigger must be a positive hit count; "
                              "got '" + directive + "'");

        ArmedSite armed;
        armed.site = site;
        armed.triggerAt = trigger;
        armed.kind = kind;
        sites.push_back(std::move(armed));
    }
    return sites;
}

/**
 * Parse QCCD_FAULT_INJECT before main() so armed CLI runs behave
 * exactly like armed test runs. A malformed spec is fatal: a fault
 * campaign that silently arms nothing would pass every test.
 */
const bool initFromEnv = []() {
    const char *env = std::getenv("QCCD_FAULT_INJECT");
    if (env == nullptr || *env == '\0')
        return false;
    try {
        setFaultInjectSpec(env);
    } catch (const QccdError &err) {
        std::fprintf(stderr, "error: bad QCCD_FAULT_INJECT: %s\n",
                     err.what());
        std::exit(2);
    }
    return true;
}();

} // namespace

namespace detail
{

std::atomic<bool> faultInjectArmed{false};

void
faultPointHit(const char *site)
{
    // Sites vector is stable while armed (see armedSites comment), so
    // walking it without the mutex is safe; only the counters mutate.
    // Every matching directive counts the hit *before* anything
    // throws, so a campaign arming one site at several triggers
    // ("toolflow.run=1,toolflow.run=2") fires at each of them.
    const ArmedSite *fire = nullptr;
    for (ArmedSite &armed : armedSites()) {
        if (armed.site != site)
            continue;
        const unsigned long hit =
            armed.hits.fetch_add(1, std::memory_order_relaxed) + 1;
        if (hit == armed.triggerAt && fire == nullptr)
            fire = &armed;
    }
    if (fire == nullptr)
        return;
    const std::string msg = "fault injected at '" + fire->site +
                            "' (hit " + std::to_string(fire->triggerAt) +
                            ")";
    switch (fire->kind) {
      case FaultKind::Throw:
        throw InternalError(msg);
      case FaultKind::Alloc:
        throw std::bad_alloc();
      case FaultKind::Config:
        throw ConfigError(msg);
      case FaultKind::Timeout:
        throw TimeoutError(msg);
    }
    panicUnless(false, "unreachable fault kind");
}

} // namespace detail

const std::vector<std::string> &
faultSiteNames()
{
    // Every QCCD_FAULT_POINT site in the tree, in pipeline order.
    // tests/test_faults.cpp arms each one against a workload chosen to
    // hit them all, so a listed-but-unreachable site fails the suite
    // (and a new site must be added here to be testable at all).
    // The "cache." sites fire only in cache-enabled runs, so the
    // campaign in test_faults skips them (like "export.row") and
    // test_result_store arms them against a cached sweep instead.
    // "engine.spawn" fires only when the engine starts threads, so
    // the one-worker campaign skips it too; test_faults arms it
    // against a multi-worker batch.
    static const std::vector<std::string> names = {
        "engine.lower",   "engine.context", "engine.spawn", "toolflow.run",
        "scheduler.build_queues", "scheduler.pop", "scheduler.execute",
        "router.evict",   "shuttle.emit",   "export.row",
        "cache.open",     "cache.lookup",   "cache.append",
        "cache.commit",
    };
    return names;
}

void
setFaultInjectSpec(const std::string &spec)
{
    std::vector<ArmedSite> parsed = parseSpec(spec);
    if (parsed.empty())
        throw ConfigError("fault spec '" + spec + "' arms no sites");
    const std::lock_guard<std::mutex> lock(armedMutex());
    detail::faultInjectArmed.store(false, std::memory_order_relaxed);
    armedSites().clear();
    for (ArmedSite &site : parsed)
        armedSites().push_back(std::move(site));
    detail::faultInjectArmed.store(true, std::memory_order_relaxed);
}

void
clearFaultInject()
{
    const std::lock_guard<std::mutex> lock(armedMutex());
    detail::faultInjectArmed.store(false, std::memory_order_relaxed);
    armedSites().clear();
}

} // namespace qccd
