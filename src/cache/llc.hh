/**
 * @file
 * Last-level cache model.
 *
 * Charges DRAM/slow-tier latency only on LLC misses: a hit costs
 * hitLatency, a miss goes on to the tier holding the frame.
 */

#ifndef THERMOSTAT_CACHE_LLC_HH
#define THERMOSTAT_CACHE_LLC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace thermostat
{

class MetricRegistry;

/** LLC geometry and timing. */
struct LlcConfig
{
    std::uint64_t sizeBytes = 32ULL << 20;
    unsigned lineSize = 64;
    unsigned ways = 16;
    Ns hitLatency = 30;
};

/** Hit/miss counters. */
struct LlcStats
{
    Count hits = 0;
    Count misses = 0;
    Count writebacks = 0;

    double
    missRatio() const
    {
        const Count total = hits + misses;
        return total == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(total);
    }
};

/**
 * Set-associative, physically-indexed LLC with LRU replacement.
 * One cache is one machine lane's slice (LlcShards), and every
 * access writes its LRU clock and counters, so it occupies whole
 * cache lines.
 */
class alignas(kCacheLineBytes) LastLevelCache
{
  public:
    explicit LastLevelCache(const LlcConfig &config);

    /**
     * Access the line containing physical address @p paddr.
     * @return true on hit.
     *
     * Defined inline below: this is the single hottest function in
     * the simulator (one call per cache line per memory access).
     */
    bool access(Addr paddr, AccessType type);

    /** Hit without side effects? (test helper) */
    bool contains(Addr paddr) const;

    /** Drop every line (e.g. after wholesale migration). */
    void flushAll();

    /**
     * Invalidate every line of the @p frames 4KB frames starting at
     * @p first.  A range with fewer lines than the cache has sets is
     * probed line by line; a larger one (a 2MB page) is cleared in
     * one pass over every set, which visits each tag once instead of
     * scanning the same set for many lines.
     */
    void invalidateFrames(Pfn first, unsigned frames);

    const LlcConfig &config() const { return config_; }
    const LlcStats &stats() const { return stats_; }
    void resetStats();

  private:
    /**
     * Lines are split into a packed tag array scanned on every
     * access and a cold LRU-clock array touched only on the hit way
     * or during victim selection.  A packed tag holds
     * `line_address << 2 | dirty << 1 | valid`, so the hit test is a
     * single masked compare and a 16-way set scan stays within two
     * cache lines instead of six.
     */
    static constexpr std::uint64_t kValidBit = 1;
    static constexpr std::uint64_t kDirtyBit = 2;

    static std::uint64_t
    packTag(std::uint64_t line)
    {
        return (line << 2) | kValidBit;
    }

    std::uint64_t
    lineAddr(Addr paddr) const
    {
        return linePow2_ ? paddr >> lineShift_
                         : paddr / config_.lineSize;
    }

    unsigned
    setIndex(std::uint64_t line) const
    {
        return setsPow2_ ? static_cast<unsigned>(line & setMask_)
                         : static_cast<unsigned>(line % setCount_);
    }

    LlcConfig config_; // shard: read-only
    unsigned setCount_; // shard: read-only
    // shard: read-only
    std::uint64_t setMask_; //!< setCount_ - 1 when a power of two
    bool setsPow2_; // shard: read-only
    bool linePow2_; // shard: read-only
    unsigned lineShift_; // shard: read-only

    /**
     * Per-set storage block: `ways` packed tags followed by `ways`
     * LRU clocks, contiguous so one miss streams a single 2*ways
     * stretch of memory instead of striding two arrays.
     */
    std::vector<std::uint64_t> setData_; // shard: lane-local
    // shard: lane-local
    std::vector<std::uint32_t> mruWay_; //!< per-set hit-way hint
    std::uint64_t useClock_ = 0; // shard: lane-local
    LlcStats stats_; // shard: lane-local
};

static_assert(alignof(LastLevelCache) == kCacheLineBytes &&
                  sizeof(LastLevelCache) % kCacheLineBytes == 0,
              "adjacent LLC lane slices must not share a cache line");

/**
 * Address-hash lane router over kMachineLanes independent LLC
 * slices.
 *
 * The LLC is physically indexed but the lane split follows the
 * *virtual* 2MB region being accessed (laneOf in common/types.hh),
 * matching the TLB and page-counter sharding: the lane is chosen by
 * the caller from the access's virtual address, so the slice
 * assignment survives migration between frames.  Each slice gets an
 * even share of the aggregate capacity.  A frame is only ever cached
 * in the slice of the lane owning its mapping: a page never changes
 * lane, and every frame that was accessed is freed through
 * PageMigrator::migrate (or with its whole address space), which
 * invalidates the old frames in that one slice before the allocator
 * can hand them to another lane's page.  So invalidation targets
 * lane(laneOf(vaddr)) only; contains() probes all lanes, which is
 * how the tests audit the invariant.  Results are fixed by the
 * slicing, not by the worker count executing the lanes.
 */
class LlcShards
{
  public:
    explicit LlcShards(const LlcConfig &config);

    /** Access @p paddr in @p lane (the accessing vaddr's lane). */
    bool
    access(unsigned lane, Addr paddr, AccessType type)
    {
        return lanes_[lane].access(paddr, type);
    }

    /** Hit in any lane without side effects? (test helper) */
    bool contains(Addr paddr) const;

    /** Drop every line in every lane. */
    void flushAll();

    LastLevelCache &lane(unsigned lane) { return lanes_[lane]; }
    const LastLevelCache &lane(unsigned lane) const
    {
        return lanes_[lane];
    }

    /** Aggregate geometry (what the machine was configured with). */
    const LlcConfig &config() const { return config_; }

    /** Lane-summed counters. */
    LlcStats stats() const;
    void resetStats();

    /** Register lane-summed counters under "<prefix>.". */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /** Divide the aggregate geometry into one lane's slice. */
    static LlcConfig sliceConfig(const LlcConfig &config);

  private:
    // shard: read-only
    LlcConfig config_; //!< aggregate geometry
    std::vector<LastLevelCache> lanes_; //!< kMachineLanes slices
};

inline bool
LastLevelCache::access(Addr paddr, AccessType type)
{
    const std::uint64_t line = lineAddr(paddr);
    const unsigned set = setIndex(line);
    const unsigned ways = config_.ways;
    std::uint64_t *tags =
        &setData_[static_cast<std::uint64_t>(set) * 2 * ways];
    std::uint64_t *uses = tags + ways;
    const std::uint64_t want = packTag(line);
    ++useClock_;

    // Most hits land on the way that hit last time in this set.
    const std::uint32_t hint = mruWay_[set];
    if ((tags[hint] & ~kDirtyBit) == want) {
        if (type == AccessType::Write) {
            tags[hint] |= kDirtyBit;
        }
        uses[hint] = useClock_;
        ++stats_.hits;
        return true;
    }
    unsigned invalid_way = ways;
    for (unsigned w = 0; w < ways; ++w) {
        if ((tags[w] & ~kDirtyBit) == want) {
            if (type == AccessType::Write) {
                tags[w] |= kDirtyBit;
            }
            uses[w] = useClock_;
            mruWay_[set] = w;
            ++stats_.hits;
            return true;
        }
        if ((tags[w] & kValidBit) == 0 && invalid_way == ways) {
            invalid_way = w;
        }
    }

    // Miss: the first invalid way, else the LRU way.
    unsigned victim = invalid_way;
    if (victim == ways) {
        victim = 0;
        std::uint64_t victim_use = uses[0];
        for (unsigned w = 1; w < ways; ++w) {
            if (uses[w] < victim_use) {
                victim_use = uses[w];
                victim = w;
            }
        }
    }

    ++stats_.misses;
    if ((tags[victim] & (kValidBit | kDirtyBit)) ==
        (kValidBit | kDirtyBit)) {
        ++stats_.writebacks;
    }
    tags[victim] =
        want | (type == AccessType::Write ? kDirtyBit : 0);
    uses[victim] = useClock_;
    mruWay_[set] = victim;
    return false;
}

} // namespace thermostat

#endif // THERMOSTAT_CACHE_LLC_HH
