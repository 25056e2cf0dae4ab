/**
 * @file
 * A per-page access window split by machine lane.
 *
 * The feedback policies count each page's profiled accesses over a
 * decision period.  TieringPolicy::onProfiledAccess() runs on the
 * machine lane that owns the page (laneOf), concurrently with the
 * other lanes, so each lane fills a map of its own, on its own cache
 * lines.  A page's counts are commutative sums over references that
 * all come from its one lane, and a decision round only looks pages
 * up, never iterates a window, so the split cannot change a decision.
 */

#ifndef THERMOSTAT_POLICY_LANE_WINDOW_HH
#define THERMOSTAT_POLICY_LANE_WINDOW_HH

#include <array>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace thermostat
{

template <typename Value>
class LaneWindow
{
  public:
    /** @p base's entry, created on first use (by @p base's lane). */
    Value &
    operator[](Addr base)
    {
        return lanes_[laneOf(base)].entries[base];
    }

    /** @p base's entry, or null when the window never saw it. */
    const Value *
    find(Addr base) const
    {
        const FlatMap<Addr, Value> &entries = lanes_[laneOf(base)].entries;
        const auto it = entries.find(base);
        return it == entries.end() ? nullptr : &it->value;
    }

    bool
    contains(Addr base) const
    {
        return lanes_[laneOf(base)].entries.contains(base);
    }

    /** Start a new window. */
    void
    clear()
    {
        for (Lane &lane : lanes_) {
            lane.entries.clear();
        }
    }

  private:
    struct alignas(kCacheLineBytes) Lane
    {
        FlatMap<Addr, Value> entries; // shard: lane-local
    };

    std::array<Lane, kMachineLanes> lanes_; // shard: lane-local
};

} // namespace thermostat

#endif // THERMOSTAT_POLICY_LANE_WINDOW_HH
