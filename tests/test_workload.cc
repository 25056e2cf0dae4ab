/**
 * @file
 * Tests for ComposedWorkload and the six cloud application models
 * (footprints must match Table 2).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "workload/cloud_apps.hh"

namespace thermostat
{
namespace
{

TieredMemory
bigMemory()
{
    return TieredMemory(TierConfig::dram(24ULL << 30),
                        TierConfig::slow(4ULL << 30));
}

std::unique_ptr<ComposedWorkload>
tinyWorkload()
{
    auto w = std::make_unique<ComposedWorkload>("tiny", 1.0e6, 0.5,
                                                60 * kNsPerSec);
    w->addRegion({"a", 4_MiB, 0, true, false});
    w->addRegion({"b", 2_MiB, 8_MiB, true, true});
    w->addGrowth({"b", 1.0e6}); // 1MB/s
    TrafficComponent hot;
    hot.region = "a";
    hot.weight = 0.9;
    hot.writeFraction = 0.0;
    hot.burstLines = 2;
    hot.pattern = std::make_unique<UniformPattern>(4_MiB);
    w->addComponent(std::move(hot));
    TrafficComponent grow;
    grow.region = "b";
    grow.weight = 0.1;
    grow.writeFraction = 1.0;
    grow.burstLines = 4;
    grow.pattern = std::make_unique<UniformPattern>(2_MiB);
    grow.trackGrowth = true;
    w->addComponent(std::move(grow));
    return w;
}

TEST(ComposedWorkload, SetupCreatesRegions)
{
    TieredMemory mem(TierConfig::dram(64_MiB),
                     TierConfig::slow(64_MiB));
    AddressSpace space(mem);
    auto w = tinyWorkload();
    w->setup(space);
    EXPECT_NE(space.findRegion("a"), nullptr);
    EXPECT_NE(space.findRegion("b"), nullptr);
    EXPECT_EQ(space.rssBytes(), 6_MiB);
    EXPECT_EQ(space.fileBackedBytes(), 2_MiB);
}

TEST(ComposedWorkload, SamplesLandInRegions)
{
    TieredMemory mem(TierConfig::dram(64_MiB),
                     TierConfig::slow(64_MiB));
    AddressSpace space(mem);
    auto w = tinyWorkload();
    w->setup(space);
    Rng rng(1);
    const Region *a = space.findRegion("a");
    const Region *b = space.findRegion("b");
    int in_a = 0;
    int in_b = 0;
    for (int i = 0; i < 10000; ++i) {
        const MemRef ref = w->sample(rng);
        if (ref.addr >= a->base && ref.addr < a->end()) {
            ++in_a;
            EXPECT_EQ(ref.burstLines, 2u);
            EXPECT_EQ(ref.type, AccessType::Read);
        } else if (ref.addr >= b->base && ref.addr < b->end()) {
            ++in_b;
            EXPECT_EQ(ref.burstLines, 4u);
            EXPECT_EQ(ref.type, AccessType::Write);
        } else {
            FAIL() << "sample outside any region";
        }
    }
    EXPECT_NEAR(in_a, 9000, 300);
    EXPECT_NEAR(in_b, 1000, 300);
}

TEST(ComposedWorkload, SamplesAreLineAligned)
{
    TieredMemory mem(TierConfig::dram(64_MiB),
                     TierConfig::slow(64_MiB));
    AddressSpace space(mem);
    auto w = tinyWorkload();
    w->setup(space);
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(w->sample(rng).addr % 64, 0u);
    }
}

TEST(ComposedWorkload, GrowthFollowsRate)
{
    TieredMemory mem(TierConfig::dram(64_MiB),
                     TierConfig::slow(64_MiB));
    AddressSpace space(mem);
    auto w = tinyWorkload();
    w->setup(space);
    // 5s at 1.0e6 bytes/s = 5.0e6 bytes, quantized to 2MB chunks
    // for a THP region: exactly two chunks mapped.
    w->advance(5 * kNsPerSec, space);
    EXPECT_EQ(space.findRegion("b")->mappedBytes, 2_MiB + 4_MiB);
}

TEST(ComposedWorkload, GrowthStopsAtReservation)
{
    TieredMemory mem(TierConfig::dram(64_MiB),
                     TierConfig::slow(64_MiB));
    AddressSpace space(mem);
    auto w = tinyWorkload();
    w->setup(space);
    w->advance(60 * kNsPerSec, space); // would be 60MB; capped at 8
    EXPECT_EQ(space.findRegion("b")->mappedBytes, 8_MiB);
    // Further advances must not die.
    w->advance(120 * kNsPerSec, space);
    EXPECT_EQ(space.findRegion("b")->mappedBytes, 8_MiB);
}

TEST(ComposedWorkload, TrackGrowthSamplesReachNewPages)
{
    TieredMemory mem(TierConfig::dram(64_MiB),
                     TierConfig::slow(64_MiB));
    AddressSpace space(mem);
    auto w = tinyWorkload();
    w->setup(space);
    w->advance(6 * kNsPerSec, space);
    const Region *b = space.findRegion("b");
    Rng rng(3);
    bool reached_growth = false;
    for (int i = 0; i < 20000; ++i) {
        const MemRef ref = w->sample(rng);
        if (ref.addr >= b->base + 2_MiB && ref.addr < b->end()) {
            reached_growth = true;
            break;
        }
    }
    EXPECT_TRUE(reached_growth);
}

TEST(ComposedWorkload, InitialFootprintHelpers)
{
    auto w = tinyWorkload();
    EXPECT_EQ(w->initialRssBytes(), 6_MiB);
    EXPECT_EQ(w->initialFileBytes(), 2_MiB);
}

/** Table 2 footprints for all six applications. */
struct FootprintCase
{
    const char *name;
    double rss_gb;       // paper Table 2
    double file_mb;
};

class CloudAppFootprint
    : public ::testing::TestWithParam<FootprintCase>
{
};

TEST_P(CloudAppFootprint, MatchesTable2)
{
    const FootprintCase &c = GetParam();
    auto w = makeWorkload(c.name);
    const double rss_gb =
        static_cast<double>(w->initialRssBytes()) / (1ULL << 30);
    EXPECT_NEAR(rss_gb, c.rss_gb, c.rss_gb * 0.12)
        << c.name << " RSS off Table 2";
    const double file_mb =
        static_cast<double>(w->initialFileBytes()) / (1ULL << 20);
    EXPECT_NEAR(file_mb, c.file_mb, c.file_mb * 0.15 + 2.0)
        << c.name << " file-mapped off Table 2";
}

INSTANTIATE_TEST_SUITE_P(
    Table2, CloudAppFootprint,
    ::testing::Values(
        FootprintCase{"aerospike", 12.3, 5.0},
        FootprintCase{"cassandra", 8.0, 4096.0},
        FootprintCase{"mysql-tpcc", 6.0, 3584.0},
        FootprintCase{"redis", 17.2, 1.0},
        FootprintCase{"in-memory-analytics", 4.3, 1.0},
        FootprintCase{"web-search", 2.28, 86.0}));

TEST(CloudApps, AllNamesConstruct)
{
    for (const std::string &name : allWorkloadNames()) {
        auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->name(), name);
        EXPECT_GT(w->memRefRate(), 0.0);
        EXPECT_GT(w->cpuWorkFraction(), 0.0);
        EXPECT_LT(w->cpuWorkFraction(), 1.0);
        EXPECT_GT(w->naturalDuration(), 0u);
    }
}

TEST(CloudApps, UnknownNameIsFatal)
{
    EXPECT_EXIT((void)makeWorkload("nosuchapp"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(CloudApps, RedisSamplesStayInHeap)
{
    TieredMemory mem = bigMemory();
    AddressSpace space(mem);
    auto w = makeRedis();
    w->setup(space);
    Rng rng(4);
    for (int i = 0; i < 5000; ++i) {
        const MemRef ref = w->sample(rng);
        bool inside = false;
        for (const Region &region : space.regions()) {
            inside |= ref.addr >= region.base &&
                      ref.addr < region.end();
        }
        EXPECT_TRUE(inside);
    }
}

TEST(CloudApps, YcsbMixChangesWriteFraction)
{
    TieredMemory mem = bigMemory();
    AddressSpace space(mem);
    auto reads = makeAerospike(YcsbMix::ReadHeavy, 1);
    reads->setup(space);
    Rng rng(5);
    int writes = 0;
    for (int i = 0; i < 5000; ++i) {
        writes +=
            reads->sample(rng).type == AccessType::Write ? 1 : 0;
    }
    EXPECT_LT(writes, 1000); // ~5% writes on the main zones
}

/** FNV-1a over the little-endian bytes of @p value. */
void
fnvMix(std::uint64_t &hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
}

TEST(CloudApps, DrawStreamsArePinned)
{
    // The shard matrix compares N shards against 1 shard through the
    // same pipeline, so it cannot see a change in how a draw
    // consumes its Rng.  These digests of the first 2^20 references
    // of every workload at seed 1, and the Rng's next output after
    // them, pin that consumption directly.
    struct Pinned
    {
        const char *name;
        std::uint64_t digest;
        std::uint64_t rngAfter;
    };
    const Pinned kPinned[] = {
        {"aerospike", 0x23fdb4800551ed6cULL, 0xb106296038a91b74ULL},
        {"cassandra", 0xdcfe941964a6754eULL, 0xa6307ba20025425aULL},
        {"mysql-tpcc", 0xe249df7167986902ULL, 0xd88258a84f9c2315ULL},
        {"redis", 0xb576089a8539d876ULL, 0xaece64fc73fadf16ULL},
        {"redis-bursty", 0x717840ee7ad7220eULL, 0x9cc2206496943d1fULL},
        {"in-memory-analytics", 0xa66efb52487d4653ULL,
         0x418ec929e5da8e95ULL},
        {"web-search", 0xcf6adbf362eedcc4ULL, 0x28c5ab87bfcd145dULL},
    };
    for (const Pinned &pinned : kPinned) {
        TieredMemory mem = bigMemory();
        AddressSpace space(mem);
        const std::string name = pinned.name;
        auto w = name == "redis-bursty" ? makeRedisBursty(1)
                                        : makeWorkload(name, 1);
        w->setup(space);
        Rng rng(1);
        std::uint64_t digest = 0xcbf29ce484222325ULL;
        for (int i = 0; i < (1 << 20); ++i) {
            const MemRef ref = w->sample(rng);
            fnvMix(digest, ref.addr);
            fnvMix(digest, static_cast<std::uint64_t>(ref.type));
            fnvMix(digest, ref.burstLines);
        }
        const std::uint64_t after = rng.next();
        EXPECT_EQ(digest, pinned.digest) << pinned.name;
        EXPECT_EQ(after, pinned.rngAfter) << pinned.name;
    }
}

TEST(CloudApps, AnalyticsGrowsOverRun)
{
    TieredMemory mem = bigMemory();
    AddressSpace space(mem);
    auto w = makeInMemAnalytics();
    w->setup(space);
    const std::uint64_t start = space.rssBytes();
    w->advance(300 * kNsPerSec, space);
    const std::uint64_t end = space.rssBytes();
    EXPECT_GT(end, start + 1'000_MiB);
    // Peak heap ~6.2GB per Table 2.
    EXPECT_NEAR(static_cast<double>(end) / (1ULL << 30), 6.1, 0.4);
}

} // namespace
} // namespace thermostat
