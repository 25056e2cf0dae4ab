/**
 * @file
 * Set-associative TLB and the two-level hierarchy of the evaluation
 * machine (Sec 4.1: 64-entry per-core L1, shared 1024-entry L2).
 *
 * Entries are tagged with the mapping size; a lookup probes both the
 * 4KB and 2MB interpretation of an address, as x86 TLBs effectively
 * do.  Huge pages increase reach by covering 512x more memory per
 * entry, which is where Table 1's THP benefit comes from.
 */

#ifndef THERMOSTAT_TLB_TLB_HH
#define THERMOSTAT_TLB_TLB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace thermostat
{

class MetricRegistry;

/** One cached translation. */
struct TlbEntry
{
    Vpn vpn = 0;     //!< page number at the entry's granularity
    Pfn pfn = 0;     //!< frame number at the same granularity
    bool huge = false;
    bool valid = false;
    std::uint64_t lastUse = 0;
};

/** Static TLB geometry. */
struct TlbConfig
{
    unsigned entryCount = 64;
    unsigned ways = 4;
};

/** Hit/miss/maintenance counters. */
struct TlbStats
{
    Count hits = 0;
    Count misses = 0;
    Count fills = 0;
    Count evictions = 0;
    Count invalidations = 0;
    Count flushes = 0;

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
 * One set-associative TLB holding 4KB and 2MB entries side by side.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /**
     * Probe for a translation of @p vaddr at either granularity.
     * Updates LRU state and hit/miss counters.  Defined inline
     * below: the last-translation fast path runs once per memory
     * access and must not pay a call.
     */
    std::optional<TlbEntry> lookup(Addr vaddr);

    /** Probe without updating LRU or counters. */
    std::optional<TlbEntry> peek(Addr vaddr) const;

    /** Install a translation (after a walk). */
    void insert(Addr vaddr, Pfn pfn, bool huge);

    /** Invalidate any entry translating @p vaddr (both sizes). */
    void invalidatePage(Addr vaddr);

    /** Invalidate everything. */
    void flushAll();

    const TlbConfig &config() const { return config_; }
    const TlbStats &stats() const { return stats_; }
    void resetStats() { stats_ = TlbStats(); }

    /** Number of currently valid entries (for tests). */
    unsigned validCount() const;

  private:
    unsigned setCount() const { return setCount_; }

    unsigned
    setIndex(Vpn vpn) const
    {
        return setsPow2_ ? static_cast<unsigned>(vpn & setMask_)
                         : static_cast<unsigned>(vpn % setCount_);
    }

    TlbEntry *findEntry(Vpn vpn, bool huge);
    const TlbEntry *findEntry(Vpn vpn, bool huge) const;
    void dropTranslationCache() { lastEntry_ = nullptr; }

    /** Full two-granularity probe (useClock_ already advanced). */
    std::optional<TlbEntry> lookupProbe(Addr vaddr);

    TlbConfig config_; // shard: read-only
    unsigned setCount_; // shard: read-only
    // shard: read-only
    std::uint64_t setMask_; //!< setCount_ - 1 when a power of two
    bool setsPow2_; // shard: read-only
    // shard: lane-local
    std::vector<TlbEntry> entries_; //!< setCount_ x ways, row-major
    std::uint64_t useClock_ = 0; // shard: lane-local
    TlbStats stats_; // shard: lane-local

    /**
     * Valid entries per size class ([0]=4KB, [1]=2MB), so a probe
     * can skip a granularity that holds no entries at all -- the
     * common case when a workload maps a single page size.
     */
    unsigned sizeCount_[2] = {0, 0};

    /**
     * Last-translation fast path: the entry returned by the previous
     * lookup, keyed by 4KB page.  A repeat lookup within the same
     * 4KB page resolves without probing either granularity; any
     * insert or invalidation drops the cache, so the shortcut is
     * exact (the 4KB probe that would normally take priority cannot
     * have gained an entry while the cache is live).
     */
    Vpn lastPage_ = 0; // shard: lane-local
    TlbEntry *lastEntry_ = nullptr; // shard: lane-local
};

/**
 * Two-level TLB hierarchy: private L1 backed by a shared L2.
 * Lookup latency (L1 hit / L2 hit) is accounted by the caller's
 * machine model; this class reports which level hit.  One hierarchy
 * is one machine lane's slice (TlbShards), and every lookup writes
 * its LRU clock and counters, so it occupies whole cache lines.
 */
class alignas(kCacheLineBytes) TlbHierarchy
{
  public:
    enum class HitLevel { L1, L2, Miss };

    TlbHierarchy(const TlbConfig &l1_config, const TlbConfig &l2_config);

    /** Probe L1 then L2; an L2 hit refills L1. */
    HitLevel lookup(Addr vaddr, TlbEntry *entry_out = nullptr);

    /** Install into both levels (after a walk). */
    void insert(Addr vaddr, Pfn pfn, bool huge);

    /** Shootdown: invalidate the page in both levels. */
    void invalidatePage(Addr vaddr);

    void flushAll();

    Tlb &l1() { return l1_; }
    Tlb &l2() { return l2_; }
    const Tlb &l1() const { return l1_; }
    const Tlb &l2() const { return l2_; }

  private:
    Tlb l1_; // shard: lane-local
    Tlb l2_; // shard: lane-local
};

static_assert(alignof(TlbHierarchy) == kCacheLineBytes &&
                  sizeof(TlbHierarchy) % kCacheLineBytes == 0,
              "adjacent TLB lane slices must not share a cache line");

/**
 * Address-hash lane router over kMachineLanes independent
 * TlbHierarchy slices.
 *
 * Each lane owns the translations of the 2MB regions hashing to it
 * (laneOf in common/types.hh), with the global entry budget divided
 * evenly across the lanes, so one epoch's access stream can probe
 * and fill all lanes concurrently with no shared mutable state.
 * Results are defined per lane: the slicing -- not the worker count
 * executing the lanes -- fixes hit/miss behavior, which is why
 * `--shards N` cannot perturb output.  Maintenance operations that
 * are not address-directed (flushAll) broadcast to every lane;
 * merged statistics are summed lane-major.
 */
class TlbShards
{
  public:
    using HitLevel = TlbHierarchy::HitLevel;

    /**
     * Geometry is the *aggregate* machine budget (e.g. 64-entry L1,
     * 1024-entry L2); each lane gets entryCount / kMachineLanes
     * entries, rounded down to a multiple of the way count and
     * clamped to at least one set.
     */
    TlbShards(const TlbConfig &l1_config, const TlbConfig &l2_config);

    /** Probe the owning lane; an L2 hit refills that lane's L1. */
    HitLevel
    lookup(Addr vaddr, TlbEntry *entry_out = nullptr)
    {
        return lanes_[laneOf(vaddr)].lookup(vaddr, entry_out);
    }

    /** Install into both levels of the owning lane. */
    void
    insert(Addr vaddr, Pfn pfn, bool huge)
    {
        lanes_[laneOf(vaddr)].insert(vaddr, pfn, huge);
    }

    /** Shootdown: invalidate the page in the owning lane. */
    void
    invalidatePage(Addr vaddr)
    {
        lanes_[laneOf(vaddr)].invalidatePage(vaddr);
    }

    /** Full flush: broadcast to every lane. */
    void flushAll();

    TlbHierarchy &lane(unsigned lane) { return lanes_[lane]; }
    const TlbHierarchy &lane(unsigned lane) const
    {
        return lanes_[lane];
    }

    /** Lane-summed counters. */
    TlbStats l1Stats() const;
    TlbStats l2Stats() const;

    void resetStats();

    /** Register lane-summed "<prefix>.l1.*" and "<prefix>.l2.*". */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /** Divide an aggregate geometry into one lane's slice. */
    static TlbConfig sliceConfig(const TlbConfig &config);

  private:
    std::vector<TlbHierarchy> lanes_; //!< kMachineLanes slices
};

inline TlbEntry *
Tlb::findEntry(Vpn vpn, bool huge)
{
    const unsigned set = setIndex(vpn);
    for (unsigned w = 0; w < config_.ways; ++w) {
        TlbEntry &e = entries_[set * config_.ways + w];
        if (e.valid && e.huge == huge && e.vpn == vpn) {
            return &e;
        }
    }
    return nullptr;
}

inline const TlbEntry *
Tlb::findEntry(Vpn vpn, bool huge) const
{
    return const_cast<Tlb *>(this)->findEntry(vpn, huge);
}

inline std::optional<TlbEntry>
Tlb::lookupProbe(Addr vaddr)
{
    const Vpn page = vpn4K(vaddr);
    if (sizeCount_[0] != 0) {
        if (TlbEntry *e = findEntry(page, false)) {
            e->lastUse = useClock_;
            ++stats_.hits;
            lastPage_ = page;
            lastEntry_ = e;
            return *e;
        }
    }
    if (sizeCount_[1] != 0) {
        if (TlbEntry *e = findEntry(vpn2M(vaddr), true)) {
            e->lastUse = useClock_;
            ++stats_.hits;
            lastPage_ = page;
            lastEntry_ = e;
            return *e;
        }
    }
    ++stats_.misses;
    return std::nullopt;
}

inline void
Tlb::insert(Addr vaddr, Pfn pfn, bool huge)
{
    dropTranslationCache();
    const Vpn vpn = huge ? vpn2M(vaddr) : vpn4K(vaddr);
    ++useClock_;
    // One pass finds a refreshable entry, the first invalid way and
    // the LRU way together (outcome identical to probe-then-scan:
    // victim priority is first-invalid, else least-recently-used
    // with the first-encountered way winning ties).
    const unsigned set = setIndex(vpn);
    TlbEntry *base = &entries_[set * config_.ways];
    TlbEntry *invalid = nullptr;
    TlbEntry *lru = nullptr;
    for (unsigned w = 0; w < config_.ways; ++w) {
        TlbEntry &e = base[w];
        if (!e.valid) {
            if (!invalid) {
                invalid = &e;
            }
            continue;
        }
        if (e.huge == huge && e.vpn == vpn) {
            // Refresh an existing entry in place.
            e.pfn = pfn;
            e.lastUse = useClock_;
            return;
        }
        if (!lru || e.lastUse < lru->lastUse) {
            lru = &e;
        }
    }
    TlbEntry *victim = invalid ? invalid : lru;
    if (victim->valid) {
        ++stats_.evictions;
        --sizeCount_[victim->huge];
    }
    victim->vpn = vpn;
    victim->pfn = pfn;
    victim->huge = huge;
    victim->valid = true;
    victim->lastUse = useClock_;
    ++sizeCount_[huge];
    ++stats_.fills;
}

inline std::optional<TlbEntry>
Tlb::lookup(Addr vaddr)
{
    ++useClock_;
    if (lastEntry_ != nullptr && vpn4K(vaddr) == lastPage_) {
        lastEntry_->lastUse = useClock_;
        ++stats_.hits;
        return *lastEntry_;
    }
    return lookupProbe(vaddr);
}

inline void
TlbHierarchy::insert(Addr vaddr, Pfn pfn, bool huge)
{
    l1_.insert(vaddr, pfn, huge);
    l2_.insert(vaddr, pfn, huge);
}

inline void
TlbHierarchy::invalidatePage(Addr vaddr)
{
    l1_.invalidatePage(vaddr);
    l2_.invalidatePage(vaddr);
}

inline TlbHierarchy::HitLevel
TlbHierarchy::lookup(Addr vaddr, TlbEntry *entry_out)
{
    if (auto e = l1_.lookup(vaddr)) {
        if (entry_out) {
            *entry_out = *e;
        }
        return HitLevel::L1;
    }
    if (auto e = l2_.lookup(vaddr)) {
        // Refill L1 from L2.
        const Addr base = e->huge ? (e->vpn << kPageShift2M)
                                  : (e->vpn << kPageShift4K);
        l1_.insert(base, e->pfn, e->huge);
        if (entry_out) {
            *entry_out = *e;
        }
        return HitLevel::L2;
    }
    return HitLevel::Miss;
}

} // namespace thermostat

#endif // THERMOSTAT_TLB_TLB_HH
