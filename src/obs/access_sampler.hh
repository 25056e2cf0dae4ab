/**
 * @file
 * Deterministic PEBS-style access sampling.
 *
 * The AccessSampler taps the timing stream inside Machine::access
 * and keeps a statistically representative view of it: every access
 * is offered, roughly one in `period` is recorded.  Sampling gaps
 * are drawn geometrically from the sampler's own xoshiro stream
 * (seeded from the run seed), so a fixed seed yields a byte-stable
 * sample stream, the hot path pays one decrement-and-branch per
 * access, and the shared workload/simulation RNG streams are never
 * perturbed -- golden runs stay byte-identical with the sampler
 * enabled.
 *
 * What the samples feed:
 *  - per-page (4KB-base) hotness counts in an open-addressing
 *    FlatMap, exportable as a Log2Histogram of per-page weights;
 *  - per-region (2MB-aligned) counts, the granularity Thermostat
 *    places at;
 *  - onAccess()'s verdict, which the caller can route into the
 *    TieringPolicy access-feedback hook so adaptive policies consume
 *    a sampled view of the real access stream instead of the
 *    synthetic profiling stream (ROADMAP item 5).
 *
 * This mirrors the paper's Sec 6.1.2 PEBS discussion: a record rate
 * of 1/period with no interrupt cost modeled here (the simulated
 * cost of hardware sampling is modeled separately by
 * CountingMode::Pebs in the profiling stream).
 */

#ifndef THERMOSTAT_OBS_ACCESS_SAMPLER_HH
#define THERMOSTAT_OBS_ACCESS_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/page_counters.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace thermostat
{

class MetricRegistry;

/** One recorded sample of the timing stream. */
struct AccessSample
{
    Addr pageBase = 0; //!< 4KB-aligned virtual page base
    bool huge = false; //!< leaf size at the sampled address
    bool write = false;
    bool slowTier = false;
    Count weight = 0; //!< real accesses this sample represents
};

/** Sampler configuration (SimConfig.sampler). */
struct AccessSamplerConfig
{
    /**
     * Mean accesses per recorded sample; 0 disables the sampler
     * entirely (the Machine tap is never installed).
     */
    Count period = 64;

    /** Salt mixed into the run seed for the sampler's own stream. */
    std::uint64_t seedSalt = 0x5a3b1e5ULL;

    /**
     * Keep the raw sample records (for export/tests) in addition to
     * the aggregate tables.  Bounded by maxRecords per lane.
     */
    bool keepRecords = false;

    /** Raw-record cap per lane; older records are dropped FIFO. */
    std::size_t maxRecords = 1u << 16;
};

/**
 * The sampler.  One instance per Simulation; internally sharded by
 * machine lane (laneOf of the sampled page), so each lane owns its
 * own xoshiro gap stream, counters, SoA weight shards and record
 * ring.  Concurrent onAccess calls are safe for *distinct lanes*
 * (which is how the sharded epoch pipeline drives it); the per-lane
 * sample streams -- and therefore every merged view -- depend only
 * on the lane split, not on the worker count.
 */
class AccessSampler
{
  public:
    AccessSampler(const AccessSamplerConfig &config,
                  std::uint64_t run_seed);

    bool enabled() const { return config_.period != 0; }
    Count period() const { return config_.period; }

    /**
     * Hot-path tap: decrement the geometric gap; record when it
     * expires.  Inline so the common (skip) case is one predictable
     * branch.  Returns whether this access was recorded.
     */
    bool
    onAccess(Addr page_base, bool huge, bool write, bool slow_tier,
             Count weight)
    {
        LaneState &lane = lanes_[laneOf(page_base)];
        ++lane.offered;
        if (--lane.gap > 0) {
            return false;
        }
        record(lane, {page_base, huge, write, slow_tier, weight});
        return true;
    }

    // -- Aggregate views -------------------------------------------------

    std::uint64_t offered() const;
    std::uint64_t sampled() const;
    std::uint64_t sampledWrites() const;
    std::uint64_t sampledSlow() const;

    /** Distinct 4KB pages observed. */
    std::size_t pagesSeen() const;
    /** Distinct 2MB regions observed. */
    std::size_t regionsSeen() const;

    /** Sampled weight attributed to one 4KB page base. */
    std::uint64_t pageWeight(Addr page_base) const;
    /** Sampled weight attributed to one 2MB-aligned region. */
    std::uint64_t regionWeight(Addr region_base) const;

    /**
     * Histogram of per-page sampled weights: the hotness skew of
     * everything observed so far (one entry per distinct page).
     */
    Log2Histogram pageHotnessHistogram() const;

    /**
     * Raw records, lane-major, oldest first within each lane (empty
     * unless keepRecords).
     */
    std::vector<AccessSample> records() const;
    std::uint64_t recordsDropped() const;

    /**
     * Deterministic digest of the whole sample stream: each lane
     * keeps an order-sensitive rolling digest of its samples, and
     * the lane digests are folded in lane order.  Two runs with the
     * same seed must agree, for any worker count.
     */
    std::uint64_t streamDigest() const;

    /** Top-N hottest regions by sampled weight (ties by address). */
    struct RegionRank
    {
        Addr base = 0;
        std::uint64_t weight = 0;
    };
    std::vector<RegionRank> hottestRegions(std::size_t n) const;

    /** Counters under "<prefix>.": offered/sampled/pages/regions. */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /** Drop all aggregates and re-arm the gap (epoch reuse). */
    void reset();

  private:
    /**
     * One machine lane's sampling state (see class comment), on
     * whole cache lines so neighbouring lanes never share one.
     */
    struct alignas(kCacheLineBytes) LaneState
    {
        Rng rng;
        std::uint64_t gap = 1;          // shard: lane-local
        std::uint64_t offered = 0;      // shard: lane-local
        std::uint64_t sampled = 0;      // shard: lane-local
        std::uint64_t sampledWrites = 0; // shard: lane-local
        std::uint64_t sampledSlow = 0;  // shard: lane-local
        std::uint64_t digest = 0x9e3779b97f4a7c15ULL; // shard: lane-local
        PageCounterShard pageWeight;
        PageCounterShard regionWeight;
        std::vector<AccessSample> records;
        std::size_t recordHead = 0;     // shard: lane-local
        std::uint64_t recordsDropped = 0; // shard: lane-local
    };
    static_assert(sizeof(LaneState) % kCacheLineBytes == 0,
                  "adjacent sampler lane slices must not share a "
                  "cache line");

    void record(LaneState &lane, const AccessSample &sample);

    /** Draw @p lane's next geometric inter-sample gap (>= 1). */
    std::uint64_t nextGap(LaneState &lane);

    AccessSamplerConfig config_; // shard: read-only
    /**
     * kMachineLanes slices.  Heap storage keeps the sampler free of
     * over-alignment.
     */
    std::vector<LaneState> lanes_;
};

} // namespace thermostat

#endif // THERMOSTAT_OBS_ACCESS_SAMPLER_HH
