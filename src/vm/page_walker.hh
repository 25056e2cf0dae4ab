/**
 * @file
 * Hardware page table walker cost model.
 *
 * Captures the paper's Sec 2.2 arithmetic: a native walk touches up
 * to 4 page-table levels; under virtualization the two-dimensional
 * (nested/extended paging) walk costs up to 24 memory accesses for a
 * 4KB mapping and 15 when both guest and host use 2MB pages.  Upper
 * levels are highly cacheable, so each step costs a configurable
 * fraction of a DRAM access.
 */

#ifndef THERMOSTAT_VM_PAGE_WALKER_HH
#define THERMOSTAT_VM_PAGE_WALKER_HH

#include <cstdint>

#include "common/types.hh"
#include "vm/page_table.hh"

namespace thermostat
{

/** Whether walks are native or two-dimensional (nested paging). */
enum class PagingMode : std::uint8_t { Native, Nested };

/** Static walker parameters. */
struct WalkerConfig
{
    PagingMode mode = PagingMode::Nested;

    /**
     * Worst-case memory accesses per walk, by mode and leaf size
     * (paper Sec 2.2: 4 native, 24 nested 4KB, 15 nested 2MB).
     */
    unsigned native4KAccesses = 4;
    unsigned native2MAccesses = 3;
    unsigned nested4KAccesses = 24;
    unsigned nested2MAccesses = 15;

    /**
     * Fraction of a raw DRAM access actually paid per walk step;
     * models page-walk caches and the better cacheability of 2MB
     * page tables ("fewer total entries compete for cache capacity").
     */
    double walkCacheFactor4K = 0.45;
    double walkCacheFactor2M = 0.35;

    /** Latency of one uncached page-table memory access. */
    Ns tableAccessLatency = 80;
};

/** Walker statistics. */
struct WalkerStats
{
    Count walks4K = 0;
    Count walks2M = 0;
    Count tableAccesses = 0;
    Ns totalWalkTime = 0;
};

/** Outcome of one hardware walk. */
struct WalkOutcome
{
    WalkResult result;        //!< leaf (or unmapped)
    Ns latency = 0;           //!< time spent walking
    unsigned accesses = 0;    //!< memory accesses performed
};

/**
 * The walker: resolves a virtual address against a PageTable,
 * charging the mode-dependent walk cost and maintaining the
 * hardware Accessed/Dirty bits in the leaf.
 */
class PageWalker
{
  public:
    explicit PageWalker(const WalkerConfig &config = {});

    const WalkerConfig &config() const { return config_; }
    const WalkerStats &stats() const { return stats_; }

    /** Memory accesses for a walk ending at a leaf of given size. */
    unsigned walkAccesses(bool huge) const { return accesses_[huge]; }

    /** Latency of a full walk ending at a leaf of given size. */
    Ns walkLatency(bool huge) const { return latency_[huge]; }

    /**
     * Perform a walk: resolve @p vaddr in @p table, set the leaf's
     * Accessed bit (and Dirty for writes), and account the cost.
     * Poison is *not* interpreted here; the MMU layer raises the
     * fault, mirroring hardware (reserved-bit check happens when the
     * walker loads the leaf).  Defined inline below: one call per
     * TLB miss.
     */
    WalkOutcome walk(PageTable &table, Addr vaddr, AccessType type);

    void resetStats() { stats_ = WalkerStats(); }

  private:
    WalkerConfig config_; // shard: read-only
    WalkerStats stats_; // shard: lane-local
    Ns latency_[2]; //!< [huge] walk latency, fixed at construction
    unsigned accesses_[2]; //!< [huge] accesses per walk
};

inline WalkOutcome
PageWalker::walk(PageTable &table, Addr vaddr, AccessType type)
{
    WalkOutcome out;
    out.result = table.walk(vaddr);
    const bool huge = out.result.huge;
    out.accesses = walkAccesses(huge);
    out.latency = walkLatency(huge);

    if (out.result.mapped()) {
        out.result.pte->setAccessed();
        if (type == AccessType::Write) {
            out.result.pte->setDirty();
        }
        if (huge) {
            ++stats_.walks2M;
        } else {
            ++stats_.walks4K;
        }
    } else {
        // Walk aborted partway; charge the 4KB-depth cost anyway.
        ++stats_.walks4K;
    }
    stats_.tableAccesses += out.accesses;
    stats_.totalWalkTime += out.latency;
    return out;
}

} // namespace thermostat

#endif // THERMOSTAT_VM_PAGE_WALKER_HH
