/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hh"

namespace thermostat
{
namespace
{

TEST(MeanAccumulator, EmptyIsZero)
{
    MeanAccumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), 0.0);
    EXPECT_DOUBLE_EQ(acc.max(), 0.0);
}

TEST(MeanAccumulator, SingleSample)
{
    MeanAccumulator acc;
    acc.add(42.0);
    EXPECT_EQ(acc.count(), 1u);
    EXPECT_DOUBLE_EQ(acc.mean(), 42.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), 42.0);
    EXPECT_DOUBLE_EQ(acc.max(), 42.0);
}

TEST(MeanAccumulator, KnownMeanAndVariance)
{
    MeanAccumulator acc;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        acc.add(x);
    }
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    // Sample variance with n-1 denominator: 32/7.
    EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(MeanAccumulator, ResetClears)
{
    MeanAccumulator acc;
    acc.add(1.0);
    acc.add(2.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
}

TEST(MeanAccumulator, NegativeValues)
{
    MeanAccumulator acc;
    acc.add(-3.0);
    acc.add(3.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), -3.0);
    EXPECT_DOUBLE_EQ(acc.max(), 3.0);
}

TEST(Log2Histogram, ZeroAndOneShareBucketZero)
{
    Log2Histogram h;
    h.add(0);
    h.add(1);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.totalSamples(), 2u);
}

TEST(Log2Histogram, PowerOfTwoBoundaries)
{
    Log2Histogram h;
    h.add(2); // [2,3] -> bucket 2
    h.add(3);
    h.add(4); // [4,7] -> bucket 3
    h.add(7);
    h.add(8); // [8,15] -> bucket 4
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.bucket(4), 1u);
}

TEST(Log2Histogram, WeightedAdd)
{
    Log2Histogram h;
    h.add(5, 10);
    EXPECT_EQ(h.totalSamples(), 10u);
    EXPECT_EQ(h.bucket(3), 10u);
}

TEST(Log2Histogram, PercentileMonotone)
{
    Log2Histogram h;
    for (std::uint64_t v = 1; v <= 1024; ++v) {
        h.add(v);
    }
    EXPECT_LE(h.percentile(0.1), h.percentile(0.5));
    EXPECT_LE(h.percentile(0.5), h.percentile(0.99));
}

TEST(Log2Histogram, PercentileOfEmptyIsZero)
{
    Log2Histogram h;
    EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(Log2Histogram, ResetClears)
{
    Log2Histogram h;
    h.add(100);
    h.reset();
    EXPECT_EQ(h.totalSamples(), 0u);
}

TEST(Log2Histogram, ToStringListsBuckets)
{
    Log2Histogram h;
    h.add(2);
    const std::string s = h.toString();
    EXPECT_NE(s.find("2..3: 1"), std::string::npos);
}

TEST(TimeSeries, AppendAndQuery)
{
    TimeSeries ts("x");
    ts.append(0, 1.0);
    ts.append(kNsPerSec, 3.0);
    ts.append(2 * kNsPerSec, 2.0);
    EXPECT_EQ(ts.size(), 3u);
    EXPECT_DOUBLE_EQ(ts.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(ts.maxValue(), 3.0);
    EXPECT_DOUBLE_EQ(ts.meanValue(), 2.0);
    EXPECT_DOUBLE_EQ(ts.lastValue(), 2.0);
}

TEST(TimeSeries, EmptyQueries)
{
    TimeSeries ts;
    EXPECT_TRUE(ts.empty());
    EXPECT_DOUBLE_EQ(ts.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(ts.maxValue(), 0.0);
    EXPECT_DOUBLE_EQ(ts.meanValue(), 0.0);
    EXPECT_DOUBLE_EQ(ts.lastValue(), 0.0);
}

TEST(TimeSeries, NonMonotonicAppendDies)
{
    TimeSeries ts("x");
    ts.append(100, 1.0);
    EXPECT_DEATH(ts.append(50, 2.0), "non-monotonic");
}

TEST(TimeSeries, EqualTimestampsAllowed)
{
    TimeSeries ts;
    ts.append(100, 1.0);
    ts.append(100, 2.0);
    EXPECT_EQ(ts.size(), 2u);
}

TEST(TimeSeries, WindowAverage)
{
    TimeSeries ts("y");
    // Window of 10: samples at 1,2 (window 0) and 11 (window 1).
    ts.append(1, 2.0);
    ts.append(2, 4.0);
    ts.append(11, 9.0);
    const TimeSeries avg = ts.windowAverage(10);
    ASSERT_EQ(avg.size(), 2u);
    EXPECT_DOUBLE_EQ(avg.at(0).value, 3.0);
    EXPECT_DOUBLE_EQ(avg.at(1).value, 9.0);
    EXPECT_EQ(avg.at(0).time, 5u);
    EXPECT_EQ(avg.at(1).time, 15u);
}

TEST(TimeSeries, WindowAverageSkipsEmptyWindows)
{
    TimeSeries ts;
    ts.append(1, 1.0);
    ts.append(95, 5.0);
    const TimeSeries avg = ts.windowAverage(10);
    EXPECT_EQ(avg.size(), 2u);
}

TEST(TimeSeries, CsvFormat)
{
    TimeSeries ts("cold");
    ts.append(kNsPerSec, 7.5);
    const std::string csv = ts.toCsv();
    EXPECT_NE(csv.find("time_sec,cold"), std::string::npos);
    EXPECT_NE(csv.find("1,7.5"), std::string::npos);
}

TEST(RateMeter, TotalCountsEveryEvent)
{
    RateMeter meter;
    meter.record(0, 10);
    meter.record(kNsPerSec, 10);
    meter.record(2 * kNsPerSec, 10);
    EXPECT_EQ(meter.total(), 30u);
}

TEST(RateMeter, WindowRateResets)
{
    RateMeter meter;
    meter.record(0, 100);
    EXPECT_NEAR(meter.takeWindowRate(kNsPerSec), 100.0, 1e-9);
    meter.record(kNsPerSec + kNsPerSec / 2, 50);
    EXPECT_NEAR(meter.takeWindowRate(2 * kNsPerSec), 50.0, 1e-9);
}

TEST(RateMeter, EmptyMeterRatesAreZero)
{
    RateMeter meter;
    EXPECT_DOUBLE_EQ(meter.takeWindowRate(kNsPerSec), 0.0);
}

TEST(RateMeter, ResetClears)
{
    RateMeter meter;
    meter.record(0, 5);
    meter.reset();
    EXPECT_EQ(meter.total(), 0u);
}

TEST(TimeSeries, WindowAverageOfEmptySeriesIsEmpty)
{
    TimeSeries ts("x");
    const TimeSeries avg = ts.windowAverage(10);
    EXPECT_TRUE(avg.samples().empty());
}

TEST(TimeSeries, WindowAverageSingleSample)
{
    TimeSeries ts("x");
    ts.append(7, 3.0);
    const TimeSeries avg = ts.windowAverage(10);
    ASSERT_EQ(avg.samples().size(), 1u);
    EXPECT_EQ(avg.samples()[0].time, 5u);
    EXPECT_DOUBLE_EQ(avg.samples()[0].value, 3.0);
}

TEST(TimeSeries, WindowAverageZeroWindowReturnsCopy)
{
    TimeSeries ts("x");
    ts.append(1, 1.0);
    ts.append(2, 4.0);
    const TimeSeries avg = ts.windowAverage(0);
    ASSERT_EQ(avg.samples().size(), 2u);
    EXPECT_EQ(avg.samples()[0].time, 1u);
    EXPECT_DOUBLE_EQ(avg.samples()[0].value, 1.0);
    EXPECT_EQ(avg.samples()[1].time, 2u);
    EXPECT_DOUBLE_EQ(avg.samples()[1].value, 4.0);
}

TEST(RateMeter, ZeroLengthWindowKeepsPendingEvents)
{
    RateMeter meter;
    meter.record(kNsPerSec, 10);
    // Re-querying at the window start must not lose the events.
    EXPECT_DOUBLE_EQ(meter.takeWindowRate(kNsPerSec), 0.0);
    EXPECT_DOUBLE_EQ(meter.takeWindowRate(2 * kNsPerSec), 10.0);
}

TEST(RateMeter, EarlyTakeAnchorsWindowStart)
{
    RateMeter meter;
    // Checkpoint before any event: the first window must span from
    // this call, not from the first event, or the rate is inflated.
    EXPECT_DOUBLE_EQ(meter.takeWindowRate(0), 0.0);
    meter.record(kNsPerSec, 10);
    EXPECT_DOUBLE_EQ(meter.takeWindowRate(2 * kNsPerSec), 5.0);
}

TEST(RateMeter, BackwardsTimeWindowIsZero)
{
    RateMeter meter;
    meter.record(2 * kNsPerSec, 4);
    EXPECT_DOUBLE_EQ(meter.takeWindowRate(kNsPerSec), 0.0);
}

} // namespace
} // namespace thermostat
