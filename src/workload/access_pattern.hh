/**
 * @file
 * Synthetic memory access patterns.
 *
 * A pattern produces byte offsets within a span of memory (one
 * region of an application's address space).  Patterns capture the
 * structure the paper's workloads exhibit: YCSB Zipfian key
 * popularity (Aerospike/Cassandra), the Redis hotspot distribution
 * where 0.01% of keys take 90% of traffic scattered uniformly by the
 * hash table, cold database tables (TPC-C), and streaming scans
 * (Spark analytics, Cassandra compaction).
 *
 * Popularity-to-address mapping is controlled by a "scatter" flag:
 * scattered patterns place popular items pseudo-randomly across the
 * span (hash-table layout), local patterns keep popular items
 * adjacent (log/table layout).  This is the property that decides
 * how much page-granular cold data exists (paper Sec 5, Redis
 * discussion).
 */

#ifndef THERMOSTAT_WORKLOAD_ACCESS_PATTERN_HH
#define THERMOSTAT_WORKLOAD_ACCESS_PATTERN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/permutation.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace thermostat
{

/**
 * Base interface: a stream of byte offsets in [0, spanBytes()).
 */
class AccessPattern
{
  public:
    virtual ~AccessPattern() = default;

    /** Next byte offset (line aligned by the caller if desired). */
    virtual std::uint64_t next(Rng &rng) = 0;

    /** Current span covered by the pattern. */
    virtual std::uint64_t spanBytes() const = 0;

    /**
     * Resize the span (e.g. the underlying region grew).  Patterns
     * that cannot resize cheaply may ignore growth and keep using
     * their original span.
     */
    virtual void setSpanBytes(std::uint64_t bytes) { (void)bytes; }

    /** Advance pattern-internal time (phase changes). */
    virtual void advance(Ns now) { (void)now; }
};

/**
 * A FixedPermutation whose images of the indices a pattern draws
 * repeatedly -- [0, min(hot indices, kMaxSlots)) -- are cached in a
 * 32-bit table filled on first use.  map() equals the raw
 * permutation for every index: indices past the table, and domains
 * of 2^32 or more, evaluate the Feistel network each time.  The
 * table is allocated on the first map(), so building a workload
 * stays cheap.  It is mutable state of the drawing thread: only the
 * thread that draws references may call map().
 */
class MemoizedPermutation
{
  public:
    /**
     * Most indices cached: a 512 KB table, half of a 1 MB per-core
     * L2.  A table the size of L2 spills to the shared L3, and its
     * lookups then cost whatever the other tenants of that cache
     * leave them: a 1 MB table drew faster in the median but varied
     * far more from run to run.
     */
    static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << 17;

    MemoizedPermutation(std::uint64_t size, std::uint64_t seed,
                        std::uint64_t hot_indices);

    std::uint64_t
    map(std::uint64_t index)
    {
        if (index >= slots_) {
            return perm_.map(index);
        }
        if (memo_.empty()) {
            memo_.assign(slots_, kUnset);
        }
        std::uint32_t &image = memo_[index];
        if (image == kUnset) {
            image = static_cast<std::uint32_t>(perm_.map(index));
        }
        return image;
    }

    /** The uncached permutation. */
    const FixedPermutation &permutation() const { return perm_; }

    /** Indices the table covers. */
    std::uint64_t cachedSlots() const { return slots_; }

  private:
    /** Never an image: cached domains are below 2^32. */
    static constexpr std::uint32_t kUnset = ~std::uint32_t{0};

    FixedPermutation perm_;
    std::uint64_t slots_;
    std::vector<std::uint32_t> memo_;
};

/** Uniform offsets over the whole span. */
class UniformPattern : public AccessPattern
{
  public:
    explicit UniformPattern(std::uint64_t span_bytes);

    std::uint64_t next(Rng &rng) override;
    std::uint64_t spanBytes() const override { return spanBytes_; }
    void setSpanBytes(std::uint64_t bytes) override
    {
        spanBytes_ = bytes;
        draw_ = BoundedDraw(spanBytes_);
    }

  private:
    std::uint64_t spanBytes_;
    BoundedDraw draw_;
};

/**
 * Zipf-popular objects of fixed size.  Rank r's slot is either
 * rank-order (local layout) or a fixed pseudo-random permutation of
 * ranks (scattered / hash-table layout).
 */
class ZipfianPattern : public AccessPattern
{
  public:
    ZipfianPattern(std::uint64_t span_bytes, std::uint64_t object_bytes,
                   double theta, bool scatter, std::uint64_t seed);

    std::uint64_t next(Rng &rng) override;
    std::uint64_t spanBytes() const override { return spanBytes_; }

    std::uint64_t objectCount() const { return zipf_.itemCount(); }

    /** Slot index (address order) for popularity rank @p rank. */
    std::uint64_t slotForRank(std::uint64_t rank) const;

  private:
    std::uint64_t spanBytes_;
    std::uint64_t objectBytes_;
    ZipfSampler zipf_;
    bool scatter_;
    MemoizedPermutation slots_; //!< caches the top-ranked slots
    BoundedDraw withinDraw_; //!< line draw inside one object
};

/**
 * Hotspot traffic: with probability hotTraffic the access targets a
 * small hot subset (hotFraction of objects); otherwise any object.
 * The hot subset is scattered or clustered per the scatter flag.
 * Redis's published load (0.01% of keys, 90% of traffic) is the
 * canonical instance.
 */
class HotspotPattern : public AccessPattern
{
  public:
    HotspotPattern(std::uint64_t span_bytes, std::uint64_t object_bytes,
                   double hot_fraction, double hot_traffic,
                   bool scatter, std::uint64_t seed);

    std::uint64_t next(Rng &rng) override;
    std::uint64_t spanBytes() const override { return spanBytes_; }

    std::uint64_t hotObjectCount() const { return hotObjects_; }

  private:
    std::uint64_t spanBytes_;
    std::uint64_t objectBytes_;
    std::uint64_t objectCount_;
    std::uint64_t hotObjects_;
    double hotTraffic_;
    bool scatter_;
    MemoizedPermutation slots_; //!< caches the hot subset's slots
    BoundedDraw hotDraw_;    //!< draw over the hot subset
    BoundedDraw anyDraw_;    //!< draw over all objects
    BoundedDraw withinDraw_; //!< line draw inside one object
};

/**
 * Sequential streaming scan with a fixed stride; wraps at the end of
 * the span.  Spreads accesses evenly over every page at a rate set
 * by the traffic share it is given.
 */
class SequentialScanPattern : public AccessPattern
{
  public:
    SequentialScanPattern(std::uint64_t span_bytes,
                          std::uint64_t stride_bytes);

    std::uint64_t next(Rng &rng) override;
    std::uint64_t spanBytes() const override { return spanBytes_; }
    void setSpanBytes(std::uint64_t bytes) override;

  private:
    std::uint64_t spanBytes_;
    std::uint64_t strideBytes_;
    std::uint64_t cursor_ = 0;
};

/**
 * Uniform accesses confined to the most recent `windowBytes` of a
 * growing span: an append-structured store (memtable, log) writes
 * its tail while flushed segments go cold.  setSpanBytes() tracks
 * region growth.
 */
class RecentWindowPattern : public AccessPattern
{
  public:
    RecentWindowPattern(std::uint64_t span_bytes,
                        std::uint64_t window_bytes);

    std::uint64_t next(Rng &rng) override;
    std::uint64_t spanBytes() const override { return spanBytes_; }
    void setSpanBytes(std::uint64_t bytes) override
    {
        spanBytes_ = bytes;
        windowDraw_ = BoundedDraw(
            windowBytes_ < spanBytes_ ? windowBytes_ : spanBytes_);
    }

    std::uint64_t windowBytes() const { return windowBytes_; }

  private:
    std::uint64_t spanBytes_;
    std::uint64_t windowBytes_;
    BoundedDraw windowDraw_;
};

/**
 * Confines an inner pattern to the slice [offset, offset + inner
 * span) of a region, so zones (hot head, warm middle, idle tail)
 * can be laid out explicitly.
 */
class OffsetPattern : public AccessPattern
{
  public:
    OffsetPattern(std::uint64_t offset_bytes,
                  std::unique_ptr<AccessPattern> inner);

    std::uint64_t next(Rng &rng) override;
    std::uint64_t spanBytes() const override;

    /** Growth forwards to the inner pattern, minus the offset. */
    void setSpanBytes(std::uint64_t bytes) override;
    void advance(Ns now) override;

  private:
    std::uint64_t offsetBytes_;
    std::unique_ptr<AccessPattern> inner_;
};

/**
 * Wraps a pattern and remaps its offsets by a rotating shift that
 * changes every @p phasePeriod, modeling working sets that move over
 * time (used to exercise Thermostat's mis-classification correction,
 * Sec 3.5).
 */
class PhaseShiftPattern : public AccessPattern
{
  public:
    /**
     * @param inner Pattern generating offsets in its own span.
     * @param phase_period Time between shifts.
     * @param shift_bytes Offset added per elapsed phase.
     * @param wrap_bytes Total window the shifted offsets wrap
     *        within; must be >= the inner span.
     */
    PhaseShiftPattern(std::unique_ptr<AccessPattern> inner,
                      Ns phase_period, std::uint64_t shift_bytes,
                      std::uint64_t wrap_bytes);

    std::uint64_t next(Rng &rng) override;
    std::uint64_t spanBytes() const override { return wrapBytes_; }
    void advance(Ns now) override;

    unsigned phaseIndex() const { return phaseIndex_; }

  private:
    std::unique_ptr<AccessPattern> inner_;
    Ns phasePeriod_;
    std::uint64_t shiftBytes_;
    std::uint64_t wrapBytes_;
    unsigned phaseIndex_ = 0;
};

} // namespace thermostat

#endif // THERMOSTAT_WORKLOAD_ACCESS_PATTERN_HH
