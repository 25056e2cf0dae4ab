/**
 * @file
 * Page migration between memory tiers (NUMA zones).
 *
 * The paper moves cold pages into the slow tier through the existing
 * Linux NUMA migration path exposed to KVM guests (Sec 3.6), and
 * reports the resulting bandwidth in Table 3, split into demotion
 * ("Migration") and promotion-after-mis-classification
 * ("False-classification") traffic.
 */

#ifndef THERMOSTAT_SYS_MIGRATION_HH
#define THERMOSTAT_SYS_MIGRATION_HH

#include <cstdint>

#include "cache/llc.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/event_trace.hh"
#include "tlb/tlb.hh"
#include "vm/address_space.hh"

namespace thermostat
{

class MetricRegistry;
class Profiler;

/** Migration cost model. */
struct MigrationConfig
{
    /** Kernel software overhead per migrated page (either size). */
    Ns perPageSwCost = 3000;

    /** Copy bandwidth between tiers, bytes/sec. */
    double copyBandwidthBytesPerSec = 4.0e9;
};

/** Aggregate migration accounting. */
struct MigrationStats
{
    Count hugeDemotions = 0;   //!< fast -> slow, 2MB
    Count baseDemotions = 0;   //!< fast -> slow, 4KB
    Count hugePromotions = 0;  //!< slow -> fast, 2MB
    Count basePromotions = 0;  //!< slow -> fast, 4KB
    std::uint64_t bytesDemoted = 0;
    std::uint64_t bytesPromoted = 0;
    Count failedAllocs = 0;    //!< target tier full
    Ns totalCost = 0;

    // Host-arbiter accounting (zero without an admission gate).
    Count admissionDenials = 0;  //!< requests the arbiter refused
    std::uint64_t bytesDenied = 0; //!< bytes those requests carried
};

/** Outcome of one migration request. */
struct MigrateResult
{
    bool moved = false;
    Ns cost = 0;
    /**
     * The admission controller refused the move (distinct from a
     * full tier: a denied request should be retried later, and the
     * migration queue requeues it instead of dropping it).
     */
    bool denied = false;
};

/**
 * Admission control over migration traffic.  When a controller is
 * attached (the datacenter host's arbiter), every migration that
 * would actually move a page is first offered to admit(); a denial
 * leaves the page where it is, costs nothing, and is visible to the
 * caller only as moved=false -- the same shape as a full target
 * tier, which every policy already handles.  Standalone runs never
 * attach one, so the single-tenant path is unchanged.
 */
class MigrationAdmission
{
  public:
    virtual ~MigrationAdmission() = default;

    /**
     * @param vaddr Leaf base being moved.
     * @param target Destination tier.
     * @param bytes Leaf size (4KB or 2MB).
     * @param now Simulation time of the request.
     * @return Whether the migration may proceed.
     */
    virtual bool admit(Addr vaddr, Tier target, std::uint64_t bytes,
                       Ns now) = 0;
};

/**
 * Moves individual pages between tiers, updating the page table,
 * TLB, LLC and the per-tier traffic meters.
 */
class PageMigrator
{
  public:
    PageMigrator(AddressSpace &space, TlbShards &tlb,
                 LlcShards *llc = nullptr,
                 const MigrationConfig &config = {});

    /**
     * Migrate the leaf page at @p vaddr to @p target.
     * No-op (moved=false, cost=0) when already there; moved=false
     * with failedAllocs incremented when the target tier is full.
     */
    MigrateResult migrate(Addr vaddr, Tier target, Ns now);

    const MigrationStats &stats() const { return stats_; }
    const MigrationConfig &config() const { return config_; }

    /**
     * Attach a lifecycle tracer: successful moves emit
     * PageDemoted/PagePromoted (value = bytes) and exhausted target
     * tiers emit MigrationFailed.
     */
    void setTracer(EventTracer *tracer) { tracer_ = tracer; }

    /**
     * Attach the host-time phase profiler: each migrate() call runs
     * under a "migrate" scope (observe-only, like the tracer).
     */
    void setProfiler(Profiler *profiler) { profiler_ = profiler; }

    /**
     * Attach an admission controller (see MigrationAdmission).
     * Null detaches; without one, migrate() never pays the check.
     */
    void setAdmission(MigrationAdmission *admission)
    {
        admission_ = admission;
    }

    /** Expose the counters under "<prefix>." in @p registry. */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /**
     * Demotion bandwidth (bytes/sec) in the window since the last
     * call; Table 3's "Migration" column.
     */
    double takeDemotionRate(Ns now) { return demotionMeter_.takeWindowRate(now); }

    /**
     * Promotion bandwidth (bytes/sec) in the window since the last
     * call; Table 3's "False-classification" column.
     */
    double takePromotionRate(Ns now) { return promotionMeter_.takeWindowRate(now); }

  private:
    Ns copyCost(std::uint64_t bytes) const;

    AddressSpace &space_;
    TlbShards &tlb_;
    LlcShards *llc_;
    MigrationConfig config_;
    MigrationStats stats_;
    EventTracer *tracer_ = nullptr;
    Profiler *profiler_ = nullptr;
    MigrationAdmission *admission_ = nullptr;
    RateMeter demotionMeter_;  //!< records bytes, not pages
    RateMeter promotionMeter_;
};

} // namespace thermostat

#endif // THERMOSTAT_SYS_MIGRATION_HH
