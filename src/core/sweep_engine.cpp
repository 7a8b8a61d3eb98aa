#include "core/sweep_engine.hpp"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <thread>
#include <utility>

#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "common/error.hpp"
#include "common/faultpoint.hpp"

namespace qccd
{

int
SweepEngine::resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("QCCD_JOBS")) {
        // A set QCCD_JOBS must be a well-formed worker count; anything
        // else is a usage error (exit 2), not a silent fallback. atoi
        // would quietly turn "4x" into 4 and "garbage" into a
        // hardware-concurrency run.
        int parsed = 0;
        const char *end = env + std::strlen(env);
        const auto [ptr, ec] = std::from_chars(env, end, parsed);
        if (ec != std::errc() || ptr != end || parsed < 1) {
            std::fprintf(stderr,
                         "error: bad QCCD_JOBS '%s': expected an "
                         "integer >= 1\n",
                         env);
            std::exit(2);
        }
        return parsed;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

SweepEngine::SweepEngine(int jobs) : jobs_(resolveJobs(jobs))
{
}

std::shared_ptr<const Circuit>
SweepEngine::lower(const Circuit &circuit)
{
    QCCD_FAULT_POINT("engine.lower");
    return std::make_shared<const Circuit>(decomposeToNative(circuit));
}

std::shared_ptr<const Circuit>
SweepEngine::nativeBenchmark(const std::string &app)
{
    auto it = circuits_.find(app);
    if (it == circuits_.end())
        it = circuits_.emplace(app, lower(makeBenchmark(app))).first;
    return it->second;
}

std::shared_ptr<const ToolflowContext>
SweepEngine::context(const DesignPoint &design)
{
    const ContextKey key = ToolflowContext::cacheKey(design);
    auto it = contexts_.find(key);
    if (it == contexts_.end()) {
        QCCD_FAULT_POINT("engine.context");
        it = contexts_
                 .emplace(key, std::make_shared<const ToolflowContext>(
                                   design))
                 .first;
    }
    return it->second;
}

std::vector<SweepPoint>
SweepEngine::run(const std::vector<SweepJob> &batch,
                 FailurePolicy policy)
{
    // Populate the context cache serially so the workers only ever read
    // shared state; each job's context is pinned by index. A failing
    // context build is itself a per-point failure: the job is marked
    // and skipped by the workers instead of sinking the whole batch.
    std::vector<std::shared_ptr<const ToolflowContext>> jobContexts(
        batch.size());
    std::vector<SweepPoint> points(batch.size());
    std::vector<std::exception_ptr> errors(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        const SweepJob &job = batch[i];
        if (job.native == nullptr) [[unlikely]]
            throw ConfigError("sweep job '" + job.application +
                              "' has no lowered circuit");
        points[i].application = job.application;
        points[i].design = job.design;
        try {
            jobContexts[i] = context(job.design);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    }

    const size_t workers = std::max<size_t>(
        std::min(static_cast<size_t>(jobs_), batch.size()), 1);

    // Evaluation order: group jobs by schedule stage key so each
    // worker's StagedToolflow sees same-key points back to back and
    // serves every point after a group's first by model replay. Groups
    // keep first-appearance order and are split into contiguous spans
    // so a large group still spreads across the pool (each span pays
    // one full schedule). Results land in input-order slots and every
    // point is bit-identical to a scalar runToolflow call, so grouping
    // never changes the rows — only how much work computes them.
    std::vector<size_t> order;
    order.reserve(batch.size());
    std::vector<std::pair<size_t, size_t>> spans; // [begin,end) in order
    {
        std::map<ScheduleKey, size_t> groupOf;
        std::vector<std::vector<size_t>> groups;
        for (size_t i = 0; i < batch.size(); ++i) {
            const auto [it, inserted] = groupOf.emplace(
                scheduleKeyFor(*batch[i].native, batch[i].design,
                               batch[i].options),
                groups.size());
            if (inserted)
                groups.emplace_back();
            groups[it->second].push_back(i);
        }
        for (const std::vector<size_t> &g : groups) {
            const size_t chunk =
                std::max<size_t>(1, (g.size() + workers - 1) / workers);
            for (size_t off = 0; off < g.size(); off += chunk) {
                const size_t len = std::min(chunk, g.size() - off);
                spans.emplace_back(order.size(), order.size() + len);
                order.insert(order.end(), g.begin() + off,
                             g.begin() + off + len);
            }
        }
    }

    std::atomic<size_t> nextSpan{0};
    std::vector<StagedToolflow::Stats> workerStats(workers);

    auto worker = [&](size_t w) {
        // One staged evaluator per worker: it carries the scratch
        // buffer pool plus the placement/schedule stage caches across
        // this worker's spans (fully keyed, so results don't depend on
        // job order).
        StagedToolflow staged;
        for (size_t s = nextSpan.fetch_add(1); s < spans.size();
             s = nextSpan.fetch_add(1)) {
            for (size_t k = spans[s].first; k < spans[s].second; ++k) {
                const size_t i = order[k];
                const SweepJob &job = batch[i];
                if (errors[i])
                    continue; // context build already failed
                try {
                    points[i].result =
                        staged.run(*job.native, job.design,
                                   *jobContexts[i], job.options);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            }
        }
        workerStats[w] = staged.stats();
    };

    if (workers <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (size_t w = 0; w < workers; ++w)
            pool.emplace_back(worker, w);
        for (std::thread &t : pool)
            t.join();
    }

    for (const StagedToolflow::Stats &s : workerStats) {
        deltaStats_.fullSchedules += s.fullSchedules;
        deltaStats_.replays += s.replays;
        deltaStats_.placementsReused += s.placementsReused;
    }

    for (size_t i = 0; i < batch.size(); ++i) {
        if (!errors[i])
            continue;
        if (policy == FailurePolicy::Rethrow)
            std::rethrow_exception(errors[i]);
        points[i].outcome = classifyFailure(errors[i], &points[i].error);
        points[i].result = RunResult{};
    }
    return points;
}

} // namespace qccd
