/**
 * @file
 * Statistics primitives used across the simulator.
 *
 * Inspired by gem5's stats package but deliberately small: scalar
 * counters, streaming mean/variance, log2-bucketed histograms, and
 * time series with windowed averaging (used e.g. for the paper's
 * Figure 3, which reports slow-memory access rate averaged over 30s
 * windows).
 */

#ifndef THERMOSTAT_COMMON_STATS_HH
#define THERMOSTAT_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace thermostat
{

/**
 * Streaming mean / variance accumulator (Welford's algorithm).
 */
class MeanAccumulator
{
  public:
    void add(double x);
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;
    double stddev() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Histogram with power-of-two bucket boundaries: bucket i counts
 * samples in [2^(i-1), 2^i), bucket 0 counts zeros and ones.
 */
class Log2Histogram
{
  public:
    Log2Histogram();

    void add(std::uint64_t value, std::uint64_t weight = 1);
    void reset();

    std::uint64_t totalSamples() const { return samples_; }
    std::uint64_t bucketCount() const { return buckets_.size(); }
    std::uint64_t bucket(unsigned i) const;

    /** Value below which @p fraction of the mass lies (approximate). */
    std::uint64_t percentile(double fraction) const;

    /** Render "bucket_lo..bucket_hi: count" lines for reports. */
    std::string toString() const;

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t samples_ = 0;
};

/**
 * A time-stamped scalar series, e.g. "cold bytes over time" or
 * "slow-memory accesses/sec".  Samples must be appended in
 * nondecreasing time order.
 */
class TimeSeries
{
  public:
    struct Sample
    {
        Ns time;
        double value;
    };

    explicit TimeSeries(std::string name = "");

    void append(Ns time, double value);

    const std::string &name() const { return name_; }
    std::size_t size() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }
    const Sample &at(std::size_t i) const { return samples_.at(i); }
    const std::vector<Sample> &samples() const { return samples_; }

    double minValue() const;
    double maxValue() const;
    double meanValue() const;

    /** Last sample value, or 0 for an empty series. */
    double lastValue() const;

    /**
     * Average the series into fixed windows of @p window ns, value-
     * weighted by nothing (plain mean of samples per window); windows
     * with no samples are skipped.  Used for Figure 3 style plots.
     */
    TimeSeries windowAverage(Ns window) const;

    /** Emit "time_sec,value" CSV rows (with a header line). */
    std::string toCsv() const;

  private:
    std::string name_;
    std::vector<Sample> samples_;
};

/**
 * Tracks an event rate over simulated time: count events, then query
 * events/sec since the last checkpoint.
 */
class RateMeter
{
  public:
    void record(Ns now, Count events = 1);
    void reset();

    Count total() const { return total_; }

    /**
     * Events/sec in the window since the last takeWindow() call;
     * advances the checkpoint to @p now.
     */
    double takeWindowRate(Ns now);

  private:
    Count total_ = 0;
    Count windowEvents_ = 0;
    Ns windowStart_ = 0;
    bool started_ = false;
    bool windowAnchored_ = false; //!< takeWindowRate checkpointed
};

} // namespace thermostat

#endif // THERMOSTAT_COMMON_STATS_HH
