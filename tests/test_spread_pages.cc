/**
 * @file
 * Tests for the Sec 6 future-work extension: spreading a 2MB page
 * across fast and slow memory.
 */

#include <gtest/gtest.h>

#include "sim/simulation.hh"

namespace thermostat
{
namespace
{

/**
 * Hot-corner workload: every 2MB page has exactly one blazing 4KB
 * subpage (stride 2MB scan) plus a trickle everywhere.
 */
std::unique_ptr<ComposedWorkload>
hotCornerWorkload()
{
    auto w = std::make_unique<ComposedWorkload>(
        "hot-corner", 200.0e3, 0.8, 300 * kNsPerSec);
    const std::uint64_t bytes = 64_MiB;
    w->addRegion({"data", bytes, 0, true, false});
    TrafficComponent hot;
    hot.region = "data";
    hot.weight = 0.999;
    hot.burstLines = 8;
    hot.pattern =
        std::make_unique<SequentialScanPattern>(bytes, kPageSize2M);
    w->addComponent(std::move(hot));
    TrafficComponent trickle;
    trickle.region = "data";
    trickle.weight = 0.0001; // dead bulk: ~0.6 touches/page/sec
    trickle.pattern = std::make_unique<UniformPattern>(bytes);
    w->addComponent(std::move(trickle));
    return w;
}

SimConfig
spreadConfig(bool spread)
{
    SimConfig config;
    config.seed = 9;
    config.samplesPerEpoch = 5000;
    config.profileWeight = 2;
    config.machine.fastTier = TierConfig::dram(256_MiB);
    config.machine.slowTier = TierConfig::slow(256_MiB);
    config.machine.llc.sizeBytes = 1_MiB;
    config.params.sampleFraction = 0.25;
    config.params.spreadHugePages = spread;
    config.params.spreadMaxHotSubpages = 16;
    config.duration = 240 * kNsPerSec;
    return config;
}

TEST(SpreadPages, DisabledKeepsHotCornerPagesWhole)
{
    Simulation sim(hotCornerWorkload(), spreadConfig(false));
    const SimResult r = sim.run();
    EXPECT_EQ(r.engine.pagesSpread, 0u);
    // Page-granular placement cannot separate the hot corner from
    // the dead bulk: nearly nothing moves.
    EXPECT_LT(r.finalColdFraction, 0.15);
}

TEST(SpreadPages, EnabledDemotesColdSubpages)
{
    Simulation sim(hotCornerWorkload(), spreadConfig(true));
    const SimResult r = sim.run();
    EXPECT_GT(r.engine.pagesSpread, 0u);
    EXPECT_GT(r.engine.spreadSubpagesDemoted,
              r.engine.pagesSpread * 400)
        << "spread pages should demote most of their 512 subpages";
    // Most of the footprint ends up in slow memory...
    EXPECT_GT(r.finalColdFraction, 0.4);
    // ...while the hot subpages stay fast and the slowdown stays
    // near the budget.
    EXPECT_LT(r.slowdown, 0.06);
}

TEST(SpreadPages, HotSubpagesStayInFastMemory)
{
    Simulation sim(hotCornerWorkload(), spreadConfig(true));
    (void)sim.run();
    AddressSpace &space = sim.machine().space();
    const Region *data = space.findRegion("data");
    // Subpage 0 of every 2MB page is the hot one.
    unsigned spread_pages = 0;
    for (Addr base = data->base; base < data->end();
         base += kPageSize2M) {
        const WalkResult wr = space.pageTable().walk(base);
        if (!wr.mapped() || wr.huge) {
            continue; // not spread
        }
        ++spread_pages;
        EXPECT_EQ(space.tierOf(base), Tier::Fast)
            << "hot subpage of a spread page was demoted";
    }
    EXPECT_GT(spread_pages, 0u);
}

TEST(SpreadPages, SpreadColdSubpagesAreMonitored)
{
    Simulation sim(hotCornerWorkload(), spreadConfig(true));
    (void)sim.run();
    // All spread-demoted subpages sit in the engine's cold base set
    // and are poisoned for correction monitoring.
    for (const Addr page : sim.engine().placedBasePages()) {
        EXPECT_EQ(sim.machine().space().tierOf(page), Tier::Slow);
        EXPECT_TRUE(sim.machine().trap().isPoisoned(page));
    }
    EXPECT_GE(sim.engine().placedBasePages().size(),
              sim.engine().engineStats().spreadSubpagesDemoted / 2);
}

TEST(SpreadPages, ThresholdGatesSpreading)
{
    // With a threshold of 0 hot subpages allowed... the page always
    // has >= 1 accessed subpage, so nothing spreads.
    SimConfig config = spreadConfig(true);
    config.params.spreadMaxHotSubpages = 0;
    Simulation sim(hotCornerWorkload(), config);
    const SimResult r = sim.run();
    EXPECT_EQ(r.engine.pagesSpread, 0u);
}

} // namespace
} // namespace thermostat
