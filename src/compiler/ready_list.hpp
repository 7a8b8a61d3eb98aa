/**
 * @file
 * The scheduler's ready list: an implementation detail of
 * compiler/scheduler, not part of the library's API.
 *
 * Holds (data-ready time, gate index) entries sorted ascending and
 * pops the least. The scheduler's traffic suits a sorted vector better
 * than a binary heap: the successor of a gate that just retired is
 * almost always among the latest-ready gates, so most inserts land at
 * or near the back, and a pop only advances a head index. In the
 * worst case an insert shifts every live entry, and the scheduler
 * never has more live entries than qubits.
 *
 * Pop order equals a min-heap's over the same pushes and pops as long
 * as no two live entries are equal: (key, gate) is then a strict total
 * order, so "the least live entry" names exactly one entry. The
 * scheduler keeps at most one live entry per gate.
 */

#ifndef QCCD_COMPILER_READY_LIST_HPP
#define QCCD_COMPILER_READY_LIST_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace qccd
{

/** Ascending (key, gate) list with O(1) pop and insert-from-back. */
class ReadyList
{
  public:
    struct Entry
    {
        TimeUs key;    ///< data-ready time when pushed
        uint32_t gate; ///< circuit gate index

        /** Ascending key, ties by ascending gate index. */
        friend bool operator<(const Entry &a, const Entry &b)
        {
            return a.key < b.key || (a.key == b.key && a.gate < b.gate);
        }
    };

    /** Drop every entry, keeping the storage. */
    void clear()
    {
        items_.clear();
        head_ = 0;
    }

    bool empty() const { return head_ == items_.size(); }

    /** Insert (@p key, @p gate) at its sorted slot, found from the back. */
    void push(TimeUs key, uint32_t gate)
    {
        // Drop the popped prefix when the storage is full and the
        // prefix fills at least half of it: memory then tracks the live
        // set, and each entry is moved O(1) times amortized.
        if (items_.size() == items_.capacity() &&
            2 * head_ >= items_.size()) {
            items_.erase(items_.begin(),
                         items_.begin() + static_cast<long>(head_));
            head_ = 0;
        }
        const Entry entry{key, gate};
        items_.push_back(entry);
        size_t slot = items_.size() - 1;
        while (slot > head_ && entry < items_[slot - 1]) {
            items_[slot] = items_[slot - 1];
            --slot;
        }
        items_[slot] = entry;
        QCCD_DBG_ASSERT(std::is_sorted(items_.begin() +
                                           static_cast<long>(head_),
                                       items_.end()),
                        "ready list is out of order after an insert");
    }

    /** Remove and return the least entry. @pre !empty() */
    Entry pop()
    {
        QCCD_DBG_ASSERT(!empty(), "pop from an empty ready list");
        const Entry least = items_[head_++];
        QCCD_DBG_ASSERT(empty() || !(items_[head_] < least),
                        "ready list popped an entry that sorts after "
                        "the new head");
        return least;
    }

  private:
    std::vector<Entry> items_; ///< [head_, end) are live, ascending
    size_t head_ = 0;          ///< first live entry
};

} // namespace qccd

#endif // QCCD_COMPILER_READY_LIST_HPP
