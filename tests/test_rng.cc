/**
 * @file
 * Unit and property tests for the deterministic RNG and the
 * Zipfian sampler.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hh"

namespace thermostat
{
namespace
{

TEST(SplitMix, KnownSequenceIsDeterministic)
{
    std::uint64_t s1 = 0x1234;
    std::uint64_t s2 = 0x1234;
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(splitMix64(s1), splitMix64(s2));
    }
}

TEST(SplitMix, AdvancesState)
{
    std::uint64_t s = 7;
    const std::uint64_t a = splitMix64(s);
    const std::uint64_t b = splitMix64(s);
    EXPECT_NE(a, b);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(99);
    Rng b(99);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.next() == b.next() ? 1 : 0;
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, ForkIsIndependentOfParentContinuation)
{
    Rng parent(5);
    Rng child = parent.fork();
    // The child stream should not replay the parent stream.
    Rng parent2(5);
    (void)parent2.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += child.next() == parent.next() ? 1 : 0;
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBoundedStaysInBounds)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL,
                                1ULL << 40}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.nextBounded(bound), bound);
        }
    }
}

TEST(Rng, NextBoundedOneAlwaysZero)
{
    Rng rng(3);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(rng.nextBounded(1), 0u);
    }
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.nextRange(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, NextBoolRespectsProbability)
{
    Rng rng(23);
    int heads = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        heads += rng.nextBool(0.25) ? 1 : 0;
    }
    const double frac = static_cast<double>(heads) / trials;
    EXPECT_NEAR(frac, 0.25, 0.02);
}

TEST(Rng, NextBoolExtremes)
{
    Rng rng(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng rng(31);
    const std::uint64_t buckets = 16;
    std::vector<int> counts(buckets, 0);
    const int trials = 64000;
    for (int i = 0; i < trials; ++i) {
        ++counts[rng.nextBounded(buckets)];
    }
    const double expect = static_cast<double>(trials) / buckets;
    for (const int c : counts) {
        EXPECT_NEAR(c, expect, expect * 0.15);
    }
}

TEST(BoundedDraw, MatchesNextBounded)
{
    for (const std::uint64_t bound :
         {std::uint64_t{1}, std::uint64_t{6}, std::uint64_t{281600},
          (std::uint64_t{1} << 63) + 5}) {
        Rng a(32);
        Rng b(32);
        const BoundedDraw draw(bound);
        for (int i = 0; i < 10000; ++i) {
            ASSERT_EQ(draw(a), b.nextBounded(bound)) << bound;
        }
    }
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    Rng rng(37);
    const auto sample = rng.sampleWithoutReplacement(100, 30);
    EXPECT_EQ(sample.size(), 30u);
    std::set<std::uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 30u);
    for (const auto v : sample) {
        EXPECT_LT(v, 100u);
    }
}

TEST(Rng, SampleWithoutReplacementAllWhenKExceedsN)
{
    Rng rng(41);
    const auto sample = rng.sampleWithoutReplacement(5, 50);
    EXPECT_EQ(sample.size(), 5u);
    std::set<std::uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleWithoutReplacementZero)
{
    Rng rng(43);
    EXPECT_TRUE(rng.sampleWithoutReplacement(10, 0).empty());
}

TEST(Rng, SampleWithoutReplacementCoversDomain)
{
    Rng rng(47);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i) {
        for (const auto v : rng.sampleWithoutReplacement(20, 5)) {
            seen.insert(v);
        }
    }
    EXPECT_EQ(seen.size(), 20u);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(53);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::vector<int> resorted = v;
    std::sort(resorted.begin(), resorted.end());
    EXPECT_EQ(resorted, sorted);
}

/** Zipf sampler property sweep over theta. */
class ZipfThetaTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfThetaTest, SamplesInRange)
{
    const double theta = GetParam();
    ZipfSampler zipf(1000, theta);
    Rng rng(61);
    for (int i = 0; i < 5000; ++i) {
        EXPECT_LT(zipf.sample(rng), 1000u);
    }
}

TEST_P(ZipfThetaTest, RankZeroIsMostPopularEmpirically)
{
    const double theta = GetParam();
    ZipfSampler zipf(500, theta);
    Rng rng(67);
    std::vector<int> counts(500, 0);
    for (int i = 0; i < 100000; ++i) {
        ++counts[zipf.sample(rng)];
    }
    int max_idx = 0;
    for (int i = 1; i < 500; ++i) {
        if (counts[i] > counts[max_idx]) {
            max_idx = i;
        }
    }
    EXPECT_EQ(max_idx, 0);
}

TEST_P(ZipfThetaTest, PopularityDecreasesWithRank)
{
    const double theta = GetParam();
    ZipfSampler zipf(100, theta);
    for (std::uint64_t r = 1; r < 100; ++r) {
        EXPECT_GT(zipf.popularity(r - 1), zipf.popularity(r));
    }
}

TEST_P(ZipfThetaTest, PopularitySumsToOne)
{
    const double theta = GetParam();
    ZipfSampler zipf(200, theta);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < 200; ++r) {
        sum += zipf.popularity(r);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(ZipfThetaTest, EmpiricalMatchesAnalyticHead)
{
    const double theta = GetParam();
    ZipfSampler zipf(1000, theta);
    Rng rng(71);
    const int trials = 200000;
    int head = 0;
    for (int i = 0; i < trials; ++i) {
        head += zipf.sample(rng) == 0 ? 1 : 0;
    }
    const double frac = static_cast<double>(head) / trials;
    EXPECT_NEAR(frac, zipf.popularity(0),
                0.25 * zipf.popularity(0) + 0.002);
}

INSTANTIATE_TEST_SUITE_P(Theta, ZipfThetaTest,
                         ::testing::Values(0.2, 0.5, 0.7, 0.9,
                                           0.99));

TEST(Zipf, HigherThetaIsMoreSkewed)
{
    ZipfSampler flat(1000, 0.3);
    ZipfSampler steep(1000, 0.95);
    EXPECT_LT(flat.popularity(0), steep.popularity(0));
}

TEST(Zipf, SingleItemDomain)
{
    ZipfSampler zipf(1, 0.5);
    Rng rng(73);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(zipf.sample(rng), 0u);
    }
    EXPECT_NEAR(zipf.popularity(0), 1.0, 1e-12);
}

} // namespace
} // namespace thermostat
