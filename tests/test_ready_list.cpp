/**
 * @file
 * Differential tests for the scheduler's ready list against a binary
 * min-heap: a std::priority_queue of (key, gate) pairs under
 * std::greater, whose pop order the scheduler's schedules are pinned to.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "compiler/ready_list.hpp"

namespace qccd
{
namespace
{

using Popped = std::pair<TimeUs, size_t>;
using Reference =
    std::priority_queue<Popped, std::vector<Popped>, std::greater<>>;

/** One seeded stream of pushes and pops. */
struct Stream
{
    uint64_t seed;
    int keyLevels;   ///< > 0: keys from this many values (heavy ties)
    bool monotone;   ///< keys never fall below the last popped key
    size_t maxLive;  ///< live-entry cap
    int pushPercent; ///< chance a step pushes rather than pops
    int stalePercent; ///< chance a pop is re-pushed under a later key
};

/**
 * Drive @p list and the reference through the same stream, keeping at
 * most one live entry per gate as the scheduler does, and return both
 * pop sequences.
 */
std::pair<std::vector<Popped>, std::vector<Popped>>
replay(const Stream &s, ReadyList &list)
{
    constexpr int kSteps = 20000;
    Rng rng(s.seed);
    Reference ref;
    const size_t gates = 2 * s.maxLive + 8;
    std::vector<bool> live(gates, false);
    TimeUs floor = 0; // last popped key
    size_t peak = 0;  // most live entries at once
    std::vector<Popped> got, want;

    const auto drawKey = [&] {
        if (s.keyLevels > 0)
            return floor * (s.monotone ? 1 : 0) +
                   10.0 * rng.nextInt(0, s.keyLevels - 1);
        const TimeUs jitter = 0.5 * rng.nextInt(0, 400);
        return s.monotone ? floor + jitter : jitter - 100.0;
    };
    const auto push = [&](TimeUs key, size_t gate) {
        list.push(key, static_cast<uint32_t>(gate));
        ref.emplace(key, gate);
        live[gate] = true;
        peak = std::max(peak, ref.size());
    };

    for (int step = 0; step < kSteps || !ref.empty(); ++step) {
        const bool draining = step >= kSteps;
        const bool can_push = !draining && ref.size() < s.maxLive;
        if (can_push &&
            (ref.empty() || rng.nextInt(0, 99) < s.pushPercent)) {
            size_t gate = rng.nextBelow(gates);
            while (live[gate])
                gate = (gate + 1) % gates;
            push(drawKey(), gate);
            continue;
        }
        const ReadyList::Entry e = list.pop();
        got.emplace_back(e.key, e.gate);
        want.push_back(ref.top());
        ref.pop();
        live[e.gate] = false;
        floor = e.key;
        // A stale entry: the gate went back under a later key, as the
        // scheduler re-pushes a gate whose operands became ready later.
        if (!draining && rng.nextInt(0, 99) < s.stalePercent)
            push(e.key + 0.5 * rng.nextInt(0, 8), e.gate);
    }
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(peak, s.maxLive) << "seed " << s.seed;
    return {got, want};
}

TEST(ReadyList, PopsInHeapOrderOnSeededStreams)
{
    const Stream streams[] = {
        // Heavy ties: a handful of distinct keys, ordered by gate.
        {1, 3, false, 64, 55, 20},
        {2, 1, false, 200, 60, 30},
        {3, 4, true, 40, 50, 25},
        // Monotone keys (the scheduler's usual shape) and arbitrary
        // ones, including keys below already-popped entries.
        {4, 0, true, 32, 52, 15},
        {5, 0, false, 32, 52, 15},
        {6, 0, true, 8, 50, 40},
        // Interleaved pops around a long list, up to 1,000 live.
        {7, 0, true, 1000, 70, 10},
        {8, 0, false, 1000, 75, 10},
        {9, 2, true, 1000, 80, 50},
    };
    ReadyList list; // pooled across streams, as in the scheduler
    for (const Stream &s : streams) {
        list.clear();
        const auto [got, want] = replay(s, list);
        EXPECT_GT(got.size(), 1000u) << "seed " << s.seed;
        EXPECT_EQ(got, want) << "seed " << s.seed;
    }
}

TEST(ReadyList, TiesPopByGateIndexAndClearResets)
{
    ReadyList list;
    list.push(1.0, 7);
    list.push(1.0, 3);
    list.push(0.5, 9);
    list.push(1.0, 5);
    EXPECT_EQ(list.pop().gate, 9u);
    EXPECT_EQ(list.pop().gate, 3u);
    list.clear();
    EXPECT_TRUE(list.empty());
    list.push(2.0, 1);
    EXPECT_EQ(list.pop().key, 2.0);
    EXPECT_TRUE(list.empty());
}

} // namespace
} // namespace qccd
