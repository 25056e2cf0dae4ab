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
 *
 * Every draw is two steps.  draw() is the serial one: it consumes
 * the Rng exactly as the draw needs and advances scan cursors, and
 * returns the raw values drawn as a PatternDraw.  resolve() is a
 * pure `const` function of a block of such tokens -- the Zipf `pow`,
 * the slot permutation, the offset arithmetic -- so a stream can
 * draw a chunk serially and resolve it on several threads (see
 * runStreams in sim/epoch_pipeline.cc), at one virtual call per block.
 */

#ifndef THERMOSTAT_WORKLOAD_ACCESS_PATTERN_HH
#define THERMOSTAT_WORKLOAD_ACCESS_PATTERN_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "common/permutation.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace thermostat
{

/**
 * The raw values one pattern draw took from the Rng.  What they mean
 * is the pattern's own business: an offset, an object index or a
 * Zipf draw's random bits in `value`, the line drawn inside one
 * object in `within`, and in `choice` which of its draws made
 * `value`.  A bounded draw of `value` stays unreduced
 * (BoundedDraw::raw), so its division is left to resolve().  Sixteen
 * bytes, so a draw returns it in registers; no member initializers,
 * so a resolve batch costs no zeroing.
 */
struct PatternDraw
{
    std::uint64_t value;
    std::uint32_t within;
    std::uint8_t choice;
};

/**
 * Base interface: a stream of byte offsets in [0, spanBytes()).
 */
class AccessPattern
{
  public:
    virtual ~AccessPattern() = default;

    /**
     * The serial step of a draw: consumes @p rng and advances any
     * cursor.  Only the thread that owns the stream's Rng calls it.
     */
    virtual PatternDraw draw(Rng &rng) = 0;

    /**
     * The pure step: offsets[i] is the byte offset tokens[i] lands
     * on (line aligned by the caller if desired); the spans have
     * equal sizes.  Safe to call from several threads at once,
     * between two calls of setSpanBytes()/advance().
     */
    virtual void resolve(std::span<const PatternDraw> tokens,
                         std::span<std::uint64_t> offsets) const = 0;

    /** Next byte offset: one draw, resolved at once. */
    std::uint64_t
    next(Rng &rng)
    {
        const PatternDraw token = draw(rng);
        std::uint64_t offset = 0;
        resolve({&token, 1}, {&offset, 1});
        return offset;
    }

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
 * 32-bit table.  map() equals the raw permutation for every index:
 * indices past the table, domains of 2^32 or more, and every index
 * before prepare() evaluate the Feistel network each time.
 *
 * prepare() allocates the table; the drawing thread calls it, so
 * building a workload stays cheap and the allocation precedes every
 * concurrent map().  map() is `const` and may run on several threads
 * at once: it fills the table with relaxed atomic loads and stores,
 * and since every thread computes the same image for an index, a
 * racing store only writes what is already there.
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

    /** Allocate the table once; not thread-safe, idempotent. */
    void
    prepare()
    {
        if (tableSlots_ != slots_) {
            allocate();
        }
    }

    std::uint64_t
    map(std::uint64_t index) const
    {
        if (index >= tableSlots_) {
            return perm_.map(index);
        }
        std::atomic<std::uint32_t> &image = table_[index];
        std::uint32_t value = image.load(std::memory_order_relaxed);
        if (value == kUnset) {
            value = static_cast<std::uint32_t>(perm_.map(index));
            image.store(value, std::memory_order_relaxed);
        }
        return value;
    }

    /** The uncached permutation. */
    const FixedPermutation &permutation() const { return perm_; }

    /** Indices the table covers once prepared. */
    std::uint64_t cachedSlots() const { return slots_; }

  private:
    /** Never an image: cached domains are below 2^32. */
    static constexpr std::uint32_t kUnset = ~std::uint32_t{0};

    void allocate();

    FixedPermutation perm_;  // shard: read-only
    std::uint64_t slots_;    // shard: read-only
    // shard: read-only -- the drawing thread's prepare() sets it first
    std::uint64_t tableSlots_ = 0;
    // shard: idempotent -- relaxed-atomic images, same on every thread
    std::unique_ptr<std::atomic<std::uint32_t>[]> table_;
};

/** Uniform offsets over the whole span. */
class UniformPattern final : public AccessPattern
{
  public:
    explicit UniformPattern(std::uint64_t span_bytes);

    PatternDraw
    draw(Rng &rng) override
    {
        return {offsetDraw_.raw(rng), 0, 0};
    }
    void resolve(std::span<const PatternDraw> tokens,
                 std::span<std::uint64_t> offsets) const override;
    std::uint64_t spanBytes() const override { return spanBytes_; }
    void setSpanBytes(std::uint64_t bytes) override
    {
        spanBytes_ = bytes;
        offsetDraw_ = BoundedDraw(spanBytes_);
    }

  private:
    std::uint64_t spanBytes_; // shard: read-only
    BoundedDraw offsetDraw_;  // shard: read-only
};

/**
 * Zipf-popular objects of fixed size.  Rank r's slot is either
 * rank-order (local layout) or a fixed pseudo-random permutation of
 * ranks (scattered / hash-table layout).
 */
class ZipfianPattern final : public AccessPattern
{
  public:
    ZipfianPattern(std::uint64_t span_bytes, std::uint64_t object_bytes,
                   double theta, bool scatter, std::uint64_t seed);

    /** The Zipf draw's raw bits and the line within the object. */
    PatternDraw
    draw(Rng &rng) override
    {
        slots_.prepare();
        PatternDraw token{};
        token.value = rng.next();
        if (objectBytes_ > 64) {
            token.within = static_cast<std::uint32_t>(withinDraw_(rng));
        }
        return token;
    }
    void resolve(std::span<const PatternDraw> tokens,
                 std::span<std::uint64_t> offsets) const override;
    std::uint64_t spanBytes() const override { return spanBytes_; }

    std::uint64_t objectCount() const { return zipf_.itemCount(); }

    /** Slot index (address order) for popularity rank @p rank. */
    std::uint64_t slotForRank(std::uint64_t rank) const;

  private:
    std::uint64_t spanBytes_;   // shard: read-only
    std::uint64_t objectBytes_; // shard: read-only
    ZipfSampler zipf_;          // shard: read-only
    bool scatter_;              // shard: read-only
    // shard: idempotent -- caches the top-ranked slots
    MemoizedPermutation slots_;
    BoundedDraw withinDraw_; // shard: read-only (line inside an object)
};

/**
 * Hotspot traffic: with probability hotTraffic the access targets a
 * small hot subset (hotFraction of objects); otherwise any object.
 * The hot subset is scattered or clustered per the scatter flag.
 * Redis's published load (0.01% of keys, 90% of traffic) is the
 * canonical instance.
 */
class HotspotPattern final : public AccessPattern
{
  public:
    HotspotPattern(std::uint64_t span_bytes, std::uint64_t object_bytes,
                   double hot_fraction, double hot_traffic,
                   bool scatter, std::uint64_t seed);

    /** The object index (choice 1: over all objects) and the line
     *  within the object. */
    PatternDraw
    draw(Rng &rng) override
    {
        slots_.prepare();
        PatternDraw token{};
        if (rng.nextBool(hotTraffic_)) {
            token.value = hotDraw_.raw(rng);
        } else {
            token.value = anyDraw_.raw(rng);
            token.choice = 1;
        }
        if (objectBytes_ > 64) {
            token.within = static_cast<std::uint32_t>(withinDraw_(rng));
        }
        return token;
    }
    void resolve(std::span<const PatternDraw> tokens,
                 std::span<std::uint64_t> offsets) const override;
    std::uint64_t spanBytes() const override { return spanBytes_; }

    std::uint64_t hotObjectCount() const { return hotObjects_; }

  private:
    std::uint64_t spanBytes_;   // shard: read-only
    std::uint64_t objectBytes_; // shard: read-only
    std::uint64_t objectCount_; // shard: read-only
    std::uint64_t hotObjects_;  // shard: read-only
    double hotTraffic_;         // shard: read-only
    bool scatter_;              // shard: read-only
    // shard: idempotent -- caches the hot subset's slots
    MemoizedPermutation slots_;
    BoundedDraw hotDraw_;    // shard: read-only (over the hot subset)
    BoundedDraw anyDraw_;    // shard: read-only (over all objects)
    BoundedDraw withinDraw_; // shard: read-only (line inside an object)
};

/**
 * Sequential streaming scan with a fixed stride; wraps at the end of
 * the span.  Spreads accesses evenly over every page at a rate set
 * by the traffic share it is given.
 */
class SequentialScanPattern final : public AccessPattern
{
  public:
    SequentialScanPattern(std::uint64_t span_bytes,
                          std::uint64_t stride_bytes);

    /** The offset under the cursor; advances the cursor. */
    PatternDraw
    draw(Rng &) override
    {
        const std::uint64_t offset = cursor_;
        cursor_ += strideBytes_;
        if (cursor_ >= spanBytes_) {
            cursor_ = 0;
        }
        return {offset, 0, 0};
    }
    void resolve(std::span<const PatternDraw> tokens,
                 std::span<std::uint64_t> offsets) const override;
    std::uint64_t spanBytes() const override { return spanBytes_; }
    void setSpanBytes(std::uint64_t bytes) override;

  private:
    std::uint64_t spanBytes_;   // shard: read-only
    std::uint64_t strideBytes_; // shard: read-only
    std::uint64_t cursor_ = 0;  // shard: serial-only (draw() advances it)
};

/**
 * Uniform accesses confined to the most recent `windowBytes` of a
 * growing span: an append-structured store (memtable, log) writes
 * its tail while flushed segments go cold.  setSpanBytes() tracks
 * region growth.
 */
class RecentWindowPattern final : public AccessPattern
{
  public:
    RecentWindowPattern(std::uint64_t span_bytes,
                        std::uint64_t window_bytes);

    /** The offset within the window. */
    PatternDraw
    draw(Rng &rng) override
    {
        return {windowDraw_.raw(rng), 0, 0};
    }
    void resolve(std::span<const PatternDraw> tokens,
                 std::span<std::uint64_t> offsets) const override;
    std::uint64_t spanBytes() const override { return spanBytes_; }
    void setSpanBytes(std::uint64_t bytes) override
    {
        spanBytes_ = bytes;
        windowDraw_ = BoundedDraw(
            windowBytes_ < spanBytes_ ? windowBytes_ : spanBytes_);
    }

    std::uint64_t windowBytes() const { return windowBytes_; }

  private:
    std::uint64_t spanBytes_;   // shard: read-only
    std::uint64_t windowBytes_; // shard: read-only
    BoundedDraw windowDraw_;    // shard: read-only
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

    PatternDraw draw(Rng &rng) override { return inner_->draw(rng); }
    void resolve(std::span<const PatternDraw> tokens,
                 std::span<std::uint64_t> offsets) const override;
    std::uint64_t spanBytes() const override;

    /** Growth forwards to the inner pattern, minus the offset. */
    void setSpanBytes(std::uint64_t bytes) override;
    void advance(Ns now) override;

  private:
    std::uint64_t offsetBytes_;            // shard: read-only
    std::unique_ptr<AccessPattern> inner_; // shard: read-only
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

    PatternDraw draw(Rng &rng) override { return inner_->draw(rng); }
    void resolve(std::span<const PatternDraw> tokens,
                 std::span<std::uint64_t> offsets) const override;
    std::uint64_t spanBytes() const override { return wrapBytes_; }
    void advance(Ns now) override;

    unsigned phaseIndex() const { return phaseIndex_; }

  private:
    std::unique_ptr<AccessPattern> inner_; // shard: read-only
    Ns phasePeriod_;                       // shard: read-only
    std::uint64_t shiftBytes_;             // shard: read-only
    std::uint64_t wrapBytes_;              // shard: read-only
    unsigned phaseIndex_ = 0; // shard: read-only (advance() sets it)
};

} // namespace thermostat

#endif // THERMOSTAT_WORKLOAD_ACCESS_PATTERN_HH
