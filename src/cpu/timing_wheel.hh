/**
 * @file
 * A timing wheel: a calendar of items keyed by cycle, for a consumer
 * that visits every cycle in order.
 *
 * Near items go into a power-of-two ring of per-cycle vectors, reused
 * cycle after cycle, so steady-state scheduling allocates nothing.
 * Items at least one ring length ahead (memory misses) wait in an
 * ordered overflow heap and move into their slot once it comes within
 * reach.  Items due in one cycle come out in the order they were
 * scheduled, wherever they waited.
 */

#ifndef RMTSIM_CPU_TIMING_WHEEL_HH
#define RMTSIM_CPU_TIMING_WHEEL_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace rmt
{

template <typename Item, std::size_t Slots>
class TimingWheel
{
    static_assert(Slots >= 2 && (Slots & (Slots - 1)) == 0,
                  "the ring length must be a power of two");

  public:
    /**
     * Queue @p item for cycle @p when.  @p now is the current cycle and
     * @p when must be later than it.  @return true if the item went to
     * the overflow heap.
     */
    bool
    schedule(Cycle now, Cycle when, Item item)
    {
        ++count;
        if (when - now <= mask) {
            ring[when & mask].push_back(std::move(item));
            return false;
        }
        far.push_back(Far{when, serial++, std::move(item)});
        std::push_heap(far.begin(), far.end(), later);
        return true;
    }

    /**
     * Move overflow items that cycle @p now brings within reach into
     * their slots.  Call once per cycle, before anything is scheduled
     * in that cycle, so an overflow item precedes every item scheduled
     * directly into its slot later.
     */
    void
    advance(Cycle now)
    {
        while (!far.empty() && far.front().when - now <= mask) {
            std::pop_heap(far.begin(), far.end(), later);
            ring[far.back().when & mask].push_back(
                std::move(far.back().item));
            far.pop_back();
        }
    }

    /** Items due at cycle @p now, in scheduling order.  Anything
     *  scheduled while they are processed lands in another slot. */
    std::vector<Item> &due(Cycle now) { return ring[now & mask]; }

    /** Drop the items of cycle @p now once processed (capacity kept). */
    void
    retire(Cycle now)
    {
        std::vector<Item> &slot = ring[now & mask];
        count -= slot.size();
        slot.clear();
    }

    /** Items still pending, ring and overflow together. */
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    /** Items waiting in the overflow heap. */
    std::size_t overflowSize() const { return far.size(); }

  private:
    struct Far
    {
        Cycle when;
        std::uint64_t serial;   ///< scheduling order among equal cycles
        Item item;
    };

    /** Heap order: the earliest cycle, then the first scheduled, on top. */
    static bool
    later(const Far &a, const Far &b)
    {
        return a.when != b.when ? a.when > b.when : a.serial > b.serial;
    }

    static constexpr Cycle mask = Slots - 1;

    std::array<std::vector<Item>, Slots> ring;
    std::vector<Far> far;
    std::uint64_t serial = 0;
    std::size_t count = 0;
};

} // namespace rmt

#endif // RMTSIM_CPU_TIMING_WHEEL_HH
