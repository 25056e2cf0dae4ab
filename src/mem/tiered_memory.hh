/**
 * @file
 * The two-tier physical memory system.
 *
 * Models the paper's dual-technology main memory: a fast DRAM tier
 * and a slow, cheap tier exposed to the OS as a separate NUMA zone
 * (Sec 3.6).  Tracks per-tier occupancy, access traffic, migration
 * bandwidth (Table 3) and device wear (Sec 6).
 */

#ifndef THERMOSTAT_MEM_TIERED_MEMORY_HH
#define THERMOSTAT_MEM_TIERED_MEMORY_HH

#include <cstdint>
#include <optional>

#include "common/flat_map.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/frame_allocator.hh"
#include "mem/tier_config.hh"

namespace thermostat
{

class MetricRegistry;

/** Per-tier runtime statistics. */
struct TierStats
{
    Count reads = 0;
    Count writes = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    Count migrationsIn = 0;
    Count migrationsOut = 0;
    std::uint64_t migrationBytesIn = 0;
    std::uint64_t migrationBytesOut = 0;
};

/**
 * One physical memory tier (a NUMA zone in the paper's KVM setup):
 * configuration, frame allocator and traffic accounting.
 */
class MemoryTier
{
  public:
    MemoryTier(const TierConfig &config, Pfn base_pfn);

    const TierConfig &config() const { return config_; }
    FrameAllocator &allocator() { return allocator_; }
    const FrameAllocator &allocator() const { return allocator_; }
    const TierStats &stats() const { return stats_; }

    /** Latency of one device access (cache-line granularity). */
    Ns
    accessLatency(AccessType type) const
    {
        return type == AccessType::Read ? config_.readLatency
                                        : config_.writeLatency;
    }

    /** Record a cache-line access to this tier. */
    void
    recordAccess(AccessType type, std::uint64_t bytes)
    {
        if (type == AccessType::Read) {
            ++stats_.reads;
            stats_.bytesRead += bytes;
        } else {
            ++stats_.writes;
            stats_.bytesWritten += bytes;
        }
    }

    /**
     * Fold a batch of lane-deferred access traffic into the tier
     * counters (Machine::syncDeviceState): the access-count and byte
     * fields of @p delta, accumulated lane-locally, land here in one
     * addition each.  Migration fields are ignored -- migrations are
     * recorded serially at their source.
     */
    void
    applyDeferred(const TierStats &delta)
    {
        stats_.reads += delta.reads;
        stats_.writes += delta.writes;
        stats_.bytesRead += delta.bytesRead;
        stats_.bytesWritten += delta.bytesWritten;
    }

    /** Record migration traffic landing in / leaving this tier. */
    void recordMigrationIn(std::uint64_t bytes);
    void recordMigrationOut(std::uint64_t bytes);

    /** Record wear: @p writes line writes against frame @p pfn. */
    void recordWear(Pfn pfn, Count writes);

    /** Maximum line-writes recorded against any single 4KB frame. */
    Count maxFrameWear() const { return maxFrameWear_; }

    /** Total line-writes across the tier. */
    Count totalWear() const { return totalWear_; }

    /**
     * Whether any frame has exceeded the configured endurance
     * (always false for unlimited-endurance tiers).
     */
    bool wornOut() const;

    std::uint64_t capacityBytes() const { return config_.capacityBytes; }
    std::uint64_t usedBytes() const;

    /** Expose the counters under "<prefix>." in @p registry. */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

  private:
    TierConfig config_;
    FrameAllocator allocator_;
    TierStats stats_;
    Count totalWear_ = 0;
    Count maxFrameWear_ = 0;
    FlatMap<Pfn, Count> frameWear_;
};

/**
 * The complete physical memory: a fast tier and a slow tier occupying
 * disjoint PFN ranges (fast first).  tierOf() resolves a PFN to its
 * tier, as the OS does with pfn_to_nid().
 */
class TieredMemory
{
  public:
    TieredMemory(const TierConfig &fast, const TierConfig &slow);

    MemoryTier &
    tier(Tier t)
    {
        return t == Tier::Fast ? fastTier_ : slowTier_;
    }

    const MemoryTier &
    tier(Tier t) const
    {
        return t == Tier::Fast ? fastTier_ : slowTier_;
    }

    MemoryTier &fast() { return tier(Tier::Fast); }
    MemoryTier &slow() { return tier(Tier::Slow); }

    /** Which tier a physical frame belongs to. */
    Tier
    tierOf(Pfn pfn) const
    {
        return pfn < slowBasePfn_ ? Tier::Fast : Tier::Slow;
    }

    /** Device access latency for a line access to frame @p pfn. */
    Ns access(Pfn pfn, AccessType type, std::uint64_t bytes = 64);

    /** Allocate a 2MB block in @p t; nullopt when the tier is full. */
    std::optional<Pfn> allocHuge(Tier t);

    /** Allocate a 4KB frame in @p t; nullopt when the tier is full. */
    std::optional<Pfn> allocBase(Tier t);

    void freeHuge(Pfn base);
    void freeBase(Pfn pfn);

    /** Total bytes allocated across both tiers. */
    std::uint64_t usedBytes() const;

    // ----- non-exclusive residency (src/migrate) ---------------------
    //
    // Nomad-style transactional migration leaves a page resident in
    // both tiers between shadow-copy start and commit, and may keep
    // a read replica after a clean promotion.  Those frames are
    // allocated through the normal allocHuge/allocBase path; the
    // shadow counters track how many of the allocated bytes are
    // second copies, so usedBytes() minus shadowBytes() is the
    // exclusive footprint and the TransactionEngine's ledger can be
    // cross-checked against the device every epoch.

    /** Account @p bytes of @p t's used capacity as a second copy. */
    void
    recordShadowAlloc(Tier t, std::uint64_t bytes)
    {
        shadowBytes(t) += bytes;
    }

    /** The shadow copy at @p t was committed, aborted or dropped. */
    void
    recordShadowRelease(Tier t, std::uint64_t bytes)
    {
        std::uint64_t &shadow = shadowBytes(t);
        TSTAT_ASSERT(shadow >= bytes,
                     "shadow release underflow on %s tier",
                     tierName(t));
        shadow -= bytes;
    }

    /** Bytes of @p t currently holding non-exclusive copies. */
    std::uint64_t
    shadowBytes(Tier t) const
    {
        return t == Tier::Fast ? fastShadowBytes_ : slowShadowBytes_;
    }

    /** Register "<prefix>.fast.*" and "<prefix>.slow.*". */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /**
     * Blended memory cost of the *used* footprint relative to backing
     * the same footprint entirely with fast-tier memory, given
     * per-tier relativeCostPerByte.  Used for Table 4.
     */
    double costRelativeToAllFast() const;

  private:
    std::uint64_t &
    shadowBytes(Tier t)
    {
        return t == Tier::Fast ? fastShadowBytes_ : slowShadowBytes_;
    }

    MemoryTier fastTier_;
    MemoryTier slowTier_;
    Pfn slowBasePfn_;
    std::uint64_t fastShadowBytes_ = 0;
    std::uint64_t slowShadowBytes_ = 0;
};

} // namespace thermostat

#endif // THERMOSTAT_MEM_TIERED_MEMORY_HH
