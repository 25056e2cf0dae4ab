/**
 * @file
 * Tests for the synthetic access patterns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "workload/access_pattern.hh"

namespace thermostat
{
namespace
{

TEST(UniformPattern, CoversSpanEvenly)
{
    UniformPattern pattern(1_MiB);
    Rng rng(1);
    std::map<std::uint64_t, int> quartiles;
    for (int i = 0; i < 40000; ++i) {
        const std::uint64_t offset = pattern.next(rng);
        ASSERT_LT(offset, 1_MiB);
        ++quartiles[offset / (256_KiB)];
    }
    ASSERT_EQ(quartiles.size(), 4u);
    for (const auto &[q, count] : quartiles) {
        EXPECT_NEAR(count, 10000, 600);
    }
}

TEST(UniformPattern, SetSpanChangesRange)
{
    UniformPattern pattern(1_MiB);
    pattern.setSpanBytes(4096);
    Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        EXPECT_LT(pattern.next(rng), 4096u);
    }
}

TEST(ZipfianPattern, StaysInSpan)
{
    ZipfianPattern pattern(1_MiB, 1024, 0.9, true, 3);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(pattern.next(rng), 1_MiB);
    }
}

TEST(ZipfianPattern, LocalLayoutConcentratesHead)
{
    // Without scattering, the popular objects sit at low offsets.
    ZipfianPattern pattern(4_MiB, 1024, 0.99, false, 4);
    Rng rng(4);
    int head = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        head += pattern.next(rng) < 1_MiB ? 1 : 0;
    }
    EXPECT_GT(head, trials / 2);
}

TEST(ZipfianPattern, ScatterSpreadsHead)
{
    ZipfianPattern pattern(4_MiB, 1024, 0.99, true, 5);
    Rng rng(5);
    int head = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        head += pattern.next(rng) < 1_MiB ? 1 : 0;
    }
    // Scattered: the low quarter gets roughly a quarter of traffic.
    EXPECT_NEAR(head, trials / 4, trials / 10);
}

TEST(ZipfianPattern, SlotForRankHonorsScatterFlag)
{
    ZipfianPattern local(1_MiB, 1024, 0.9, false, 6);
    EXPECT_EQ(local.slotForRank(0), 0u);
    EXPECT_EQ(local.slotForRank(17), 17u);
    ZipfianPattern scattered(1_MiB, 1024, 0.9, true, 6);
    bool any_moved = false;
    for (std::uint64_t r = 0; r < 10; ++r) {
        any_moved |= scattered.slotForRank(r) != r;
    }
    EXPECT_TRUE(any_moved);
}

TEST(HotspotPattern, TrafficConcentratesOnHotSet)
{
    // 1% of objects, 90% of traffic, local layout.
    HotspotPattern pattern(4_MiB, 1024, 0.01, 0.90, false, 7);
    Rng rng(7);
    const std::uint64_t hot_bytes =
        pattern.hotObjectCount() * 1024;
    int hot = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        hot += pattern.next(rng) < hot_bytes ? 1 : 0;
    }
    // 90% direct + ~1% of the uniform remainder.
    EXPECT_NEAR(hot, static_cast<int>(trials * 0.901), 800);
}

TEST(HotspotPattern, HotObjectCount)
{
    HotspotPattern pattern(4_MiB, 1024, 0.01, 0.9, false, 8);
    EXPECT_EQ(pattern.hotObjectCount(), 40u); // 1% of 4096 objects
}

TEST(HotspotPattern, ZeroHotTrafficIsUniform)
{
    HotspotPattern pattern(4_MiB, 1024, 0.01, 0.0, false, 9);
    Rng rng(9);
    int head = 0;
    for (int i = 0; i < 10000; ++i) {
        head += pattern.next(rng) < 1_MiB ? 1 : 0;
    }
    EXPECT_NEAR(head, 2500, 400);
}

/**
 * Cycle-walk-heavy domains: analytics' 281,600 objects (past the
 * memo's cap) and 67,584 (inside it) sit just above a power of four,
 * so most Feistel images fall outside the domain.
 */
const std::uint64_t kMemoDomains[] = {281600, 67584};

TEST(MemoizedPermutation, MatchesRawMapInAnyFillOrder)
{
    for (const std::uint64_t n : kMemoDomains) {
        const FixedPermutation raw(n, 21);
        std::vector<std::uint64_t> ascending(n);
        std::iota(ascending.begin(), ascending.end(), 0);
        std::vector<std::uint64_t> descending(ascending.rbegin(),
                                              ascending.rend());
        std::vector<std::uint64_t> shuffled = ascending;
        Rng rng(n);
        for (std::uint64_t i = n - 1; i > 0; --i) {
            std::swap(shuffled[i], shuffled[rng.next() % (i + 1)]);
        }
        for (const auto *order : {&ascending, &descending, &shuffled}) {
            MemoizedPermutation memo(n, 21, n);
            EXPECT_EQ(memo.cachedSlots(),
                      std::min(n, MemoizedPermutation::kMaxSlots));
            // Twice: the first pass fills the table, the second
            // reads it back.
            for (int pass = 0; pass < 2; ++pass) {
                for (const std::uint64_t i : *order) {
                    ASSERT_EQ(memo.map(i), raw.map(i))
                        << "n=" << n << " index=" << i;
                }
            }
        }
    }
}

TEST(MemoizedPermutation, CapsAndSkipsWideDomains)
{
    MemoizedPermutation hot(281600, 22, 1000);
    EXPECT_EQ(hot.cachedSlots(), 1000u);
    MemoizedPermutation none(281600, 22, 0);
    EXPECT_EQ(none.cachedSlots(), 0u);
    // Images of a 2^32 domain do not fit the 32-bit table.
    const std::uint64_t wide = std::uint64_t{1} << 32;
    MemoizedPermutation uncached(wide, 23, wide);
    EXPECT_EQ(uncached.cachedSlots(), 0u);
    const FixedPermutation raw(wide, 23);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        EXPECT_EQ(uncached.map(i), raw.map(i));
    }
}

TEST(ZipfianPattern, MemoizedStreamMatchesRawPermutation)
{
    // Analytics' geometry: 281,600 scattered 4 KB objects, theta 0.6.
    const std::uint64_t objects = 281600;
    const std::uint64_t span = objects * 4096;
    ZipfianPattern pattern(span, 4096, 0.6, true, 24);
    const ZipfSampler zipf(objects, 0.6);
    const FixedPermutation perm(objects, 24);
    const BoundedDraw within(4096 / 64);
    Rng rng(24);
    Rng ref(24);
    for (int i = 0; i < 1000000; ++i) {
        const std::uint64_t slot = perm.map(zipf.sample(ref));
        const std::uint64_t expect =
            std::min(slot * 4096 + within(ref) * 64, span - 1);
        ASSERT_EQ(pattern.next(rng), expect) << "draw " << i;
    }
}

TEST(HotspotPattern, MemoizedStreamMatchesRawPermutation)
{
    // 67,584 scattered 1 KB objects, a 10% hot subset.
    const std::uint64_t objects = 67584;
    const std::uint64_t span = objects * 1024;
    HotspotPattern pattern(span, 1024, 0.1, 0.9, true, 25);
    const FixedPermutation perm(objects, 25);
    const BoundedDraw hot(pattern.hotObjectCount());
    const BoundedDraw any(objects);
    const BoundedDraw within(1024 / 64);
    Rng rng(25);
    Rng ref(25);
    for (int i = 0; i < 1000000; ++i) {
        const std::uint64_t index =
            ref.nextBool(0.9) ? hot(ref) : any(ref);
        const std::uint64_t expect = std::min(
            perm.map(index) * 1024 + within(ref) * 64, span - 1);
        ASSERT_EQ(pattern.next(rng), expect) << "draw " << i;
    }
}

TEST(SequentialScanPattern, StridesAndWraps)
{
    SequentialScanPattern pattern(1024, 256);
    Rng rng(10);
    EXPECT_EQ(pattern.next(rng), 0u);
    EXPECT_EQ(pattern.next(rng), 256u);
    EXPECT_EQ(pattern.next(rng), 512u);
    EXPECT_EQ(pattern.next(rng), 768u);
    EXPECT_EQ(pattern.next(rng), 0u) << "must wrap";
}

TEST(SequentialScanPattern, ShrinkResetsCursor)
{
    SequentialScanPattern pattern(4096, 1024);
    Rng rng(11);
    (void)pattern.next(rng);
    (void)pattern.next(rng);
    (void)pattern.next(rng); // cursor at 3072
    pattern.setSpanBytes(2048);
    EXPECT_LT(pattern.next(rng), 2048u);
}

TEST(OffsetPattern, ShiftsIntoSlice)
{
    auto inner = std::make_unique<UniformPattern>(4096);
    OffsetPattern pattern(1_MiB, std::move(inner));
    Rng rng(12);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t offset = pattern.next(rng);
        EXPECT_GE(offset, 1_MiB);
        EXPECT_LT(offset, 1_MiB + 4096);
    }
    EXPECT_EQ(pattern.spanBytes(), 1_MiB + 4096);
}

TEST(PhaseShiftPattern, PhaseAdvancesWithTime)
{
    auto inner = std::make_unique<UniformPattern>(4096);
    PhaseShiftPattern pattern(std::move(inner), kNsPerSec, 4096,
                              4 * 4096);
    EXPECT_EQ(pattern.phaseIndex(), 0u);
    pattern.advance(3 * kNsPerSec);
    EXPECT_EQ(pattern.phaseIndex(), 3u);
}

TEST(PhaseShiftPattern, OffsetsMoveAcrossPhases)
{
    auto inner = std::make_unique<UniformPattern>(4096);
    PhaseShiftPattern pattern(std::move(inner), kNsPerSec, 4096,
                              4 * 4096);
    Rng rng(13);
    // Phase 0: offsets in [0, 4096).
    for (int i = 0; i < 100; ++i) {
        EXPECT_LT(pattern.next(rng), 4096u);
    }
    pattern.advance(kNsPerSec); // phase 1
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t offset = pattern.next(rng);
        EXPECT_GE(offset, 4096u);
        EXPECT_LT(offset, 2u * 4096);
    }
}

TEST(PhaseShiftPattern, WrapsAroundWindow)
{
    auto inner = std::make_unique<UniformPattern>(4096);
    PhaseShiftPattern pattern(std::move(inner), kNsPerSec, 4096,
                              4 * 4096);
    Rng rng(14);
    pattern.advance(4 * kNsPerSec); // phase 4 == phase 0 mod window
    for (int i = 0; i < 100; ++i) {
        EXPECT_LT(pattern.next(rng), 4096u);
    }
}

} // namespace
} // namespace thermostat
