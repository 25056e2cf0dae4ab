/**
 * @file
 * Tests for the last-level cache model.
 */

#include <gtest/gtest.h>

#include "cache/llc.hh"

namespace thermostat
{
namespace
{

LlcConfig
tinyConfig()
{
    LlcConfig config;
    config.sizeBytes = 64 * 1024; // 1024 lines
    config.lineSize = 64;
    config.ways = 4;
    return config;
}

TEST(Llc, MissThenHit)
{
    LastLevelCache llc(tinyConfig());
    EXPECT_FALSE(llc.access(0x1000, AccessType::Read));
    EXPECT_TRUE(llc.access(0x1000, AccessType::Read));
    EXPECT_EQ(llc.stats().hits, 1u);
    EXPECT_EQ(llc.stats().misses, 1u);
}

TEST(Llc, SameLineDifferentBytesHit)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0x1000, AccessType::Read);
    EXPECT_TRUE(llc.access(0x1030, AccessType::Read));
}

TEST(Llc, DifferentLinesMissIndependently)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0x1000, AccessType::Read);
    EXPECT_FALSE(llc.access(0x1040, AccessType::Read));
}

TEST(Llc, LruEvictionWithinSet)
{
    LlcConfig config = tinyConfig();
    LastLevelCache llc(config);
    const unsigned sets = static_cast<unsigned>(
        config.sizeBytes / config.lineSize / config.ways);
    const Addr stride = static_cast<Addr>(sets) * config.lineSize;
    // Fill one set (4 ways), then touch line 0 and insert a fifth.
    for (Addr i = 0; i < 4; ++i) {
        (void)llc.access(i * stride, AccessType::Read);
    }
    EXPECT_TRUE(llc.access(0, AccessType::Read));
    (void)llc.access(4 * stride, AccessType::Read);
    EXPECT_TRUE(llc.access(0, AccessType::Read));
    EXPECT_FALSE(llc.access(stride, AccessType::Read))
        << "LRU line should have been evicted";
}

TEST(Llc, DirtyEvictionCountsWriteback)
{
    LlcConfig config = tinyConfig();
    LastLevelCache llc(config);
    const unsigned sets = static_cast<unsigned>(
        config.sizeBytes / config.lineSize / config.ways);
    const Addr stride = static_cast<Addr>(sets) * config.lineSize;
    (void)llc.access(0, AccessType::Write);
    for (Addr i = 1; i <= 4; ++i) {
        (void)llc.access(i * stride, AccessType::Read);
    }
    EXPECT_EQ(llc.stats().writebacks, 1u);
}

TEST(Llc, FlushAllEmptiesCache)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0x2000, AccessType::Read);
    llc.flushAll();
    EXPECT_FALSE(llc.contains(0x2000));
    EXPECT_FALSE(llc.access(0x2000, AccessType::Read));
}

/**
 * Fill @p frames frames from @p first with dirty lines, plus the last
 * line of the frame before and the first line of the frame after,
 * invalidate the range, and check that only the range went.
 */
void
checkInvalidateRange(Pfn first, unsigned frames)
{
    const LlcConfig config = tinyConfig();
    LastLevelCache llc(config);
    const Addr begin = first * kPageSize4K;
    const Addr end = begin + frames * kPageSize4K;
    const Addr before = begin - config.lineSize;
    const Addr after = end;
    // Lines per set stays within the ways, so nothing is evicted.
    for (Addr a = begin; a < end; a += config.lineSize) {
        (void)llc.access(a, AccessType::Write);
    }
    (void)llc.access(before, AccessType::Write);
    (void)llc.access(after, AccessType::Read);
    ASSERT_TRUE(llc.contains(begin));
    ASSERT_TRUE(llc.contains(end - config.lineSize));
    const Count writebacks = llc.stats().writebacks;

    llc.invalidateFrames(first, frames);

    for (Addr a = begin; a < end; a += config.lineSize) {
        EXPECT_FALSE(llc.contains(a)) << "line " << a;
    }
    EXPECT_EQ(llc.stats().writebacks, writebacks)
        << "invalidation drops dirty lines without writeback";
    EXPECT_TRUE(llc.contains(before));
    EXPECT_TRUE(llc.contains(after));
    // The kept neighbours were the last fill of their sets, so these
    // hits take the set's hit-way hint.
    const Count hits = llc.stats().hits;
    EXPECT_TRUE(llc.access(before, AccessType::Read));
    EXPECT_TRUE(llc.access(after, AccessType::Read));
    EXPECT_EQ(llc.stats().hits, hits + 2);
    // A dropped line misses and refills.
    EXPECT_FALSE(llc.access(begin, AccessType::Read));
}

TEST(Llc, InvalidateFrameDropsOnlyThatFrame)
{
    const LlcConfig config = tinyConfig();
    const unsigned sets = static_cast<unsigned>(
        config.sizeBytes / config.lineSize / config.ways);
    const unsigned lines_per_frame =
        static_cast<unsigned>(kPageSize4K / config.lineSize);
    // One frame has fewer lines than the cache has sets: the
    // line-by-line probe.
    ASSERT_LT(lines_per_frame, sets);
    checkInvalidateRange(5, 1);
    // A range covering every set: the one-pass sweep.
    const unsigned frames = sets / lines_per_frame;
    ASSERT_GE(frames * lines_per_frame, sets);
    checkInvalidateRange(8, frames);
}

TEST(Llc, ContainsDoesNotPerturb)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0x3000, AccessType::Read);
    const auto hits = llc.stats().hits;
    EXPECT_TRUE(llc.contains(0x3000));
    EXPECT_FALSE(llc.contains(0x4000));
    EXPECT_EQ(llc.stats().hits, hits);
}

TEST(Llc, ResetStats)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0x0, AccessType::Read);
    llc.resetStats();
    EXPECT_EQ(llc.stats().misses, 0u);
}

TEST(Llc, MissRatio)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0, AccessType::Read);
    (void)llc.access(0, AccessType::Read);
    (void)llc.access(0, AccessType::Read);
    EXPECT_NEAR(llc.stats().missRatio(), 1.0 / 3.0, 1e-12);
}

TEST(LlcDeath, BadGeometryPanics)
{
    LlcConfig config;
    config.sizeBytes = 1000;
    config.lineSize = 64;
    config.ways = 7;
    EXPECT_DEATH(LastLevelCache{config}, "");
}

} // namespace
} // namespace thermostat
