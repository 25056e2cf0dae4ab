/**
 * @file
 * Integration tests for the Thermostat engine's state machine: the
 * split/poison/classify pipeline, placement under the rate budget,
 * and mis-classification correction.
 *
 * Accesses are injected directly (Accessed bits + poisoned-page
 * counters), which gives exact control over page temperatures.
 */

#include <gtest/gtest.h>

#include "policy/thermostat_policy.hh"

namespace thermostat
{
namespace
{

class EngineTest : public ::testing::Test
{
  protected:
    static constexpr Ns kPeriod = 30 * kNsPerSec;

    EngineTest()
        : memory_(TierConfig::dram(512_MiB),
                  TierConfig::slow(512_MiB)),
          space_(memory_),
          tlb_({64, 4}, {1024, 8}),
          trap_(space_, tlb_),
          kstaled_(space_, tlb_),
          llc_({64 * 1024, 64, 4, 30}),
          migrator_(space_, tlb_, &llc_),
          cgroup_("test", makeParams()),
          engine_(PolicyContext{cgroup_, space_, trap_, kstaled_,
                                migrator_, PolicyParams{}, nullptr,
                                11})
    {
        heap_ = space_.mapRegion("heap", 100_MiB); // 50 huge pages
    }

    static ThermostatParams
    makeParams()
    {
        ThermostatParams params;
        params.tolerableSlowdownPct = 3.0;
        params.slowMemLatency = 1000; // budget: 30K acc/s
        params.sampleFraction = 0.20; // converge fast in tests
        params.samplingPeriod = kPeriod;
        return params;
    }

    /**
     * Simulate application traffic for one epoch: hot pages get
     * their Accessed bits set and, when poisoned, their counters
     * bumped by rate*seconds accesses.
     */
    void
    runEpochTraffic(double hot_rate, unsigned hot_pages,
                    double epoch_sec = 1.0)
    {
        for (unsigned i = 0; i < hot_pages; ++i) {
            const Addr page = heap_ + i * kPageSize2M;
            // Mark every subpage accessed (hot page).
            space_.pageTable().forEachLeaf(
                [&](Addr addr, Pte &pte, bool) {
                    if (alignDown2M(addr) == page) {
                        pte.setAccessed();
                    }
                });
            const WalkResult wr = space_.pageTable().walk(page);
            if (wr.mapped() && wr.pte->poisoned()) {
                const Count events = static_cast<Count>(
                    hot_rate * epoch_sec /
                    static_cast<double>(hot_pages));
                if (wr.huge) {
                    trap_.recordAccess(page, events);
                } else {
                    // Split page: spread over subpages.
                    for (unsigned s = 0; s < kSubpagesPerHuge;
                         ++s) {
                        const Addr sub = page + s * kPageSize4K;
                        if (trap_.isPoisoned(sub)) {
                            trap_.recordAccess(
                                sub, events / kSubpagesPerHuge + 1);
                        }
                    }
                }
            } else if (wr.mapped() && !wr.huge) {
                for (unsigned s = 0; s < kSubpagesPerHuge; ++s) {
                    const Addr sub = page + s * kPageSize4K;
                    const WalkResult sw =
                        space_.pageTable().walk(sub);
                    if (sw.mapped()) {
                        sw.pte->setAccessed();
                        if (sw.pte->poisoned()) {
                            const Count events = static_cast<Count>(
                                hot_rate * epoch_sec /
                                (hot_pages * kSubpagesPerHuge));
                            trap_.recordAccess(sub, events + 1);
                        }
                    }
                }
            }
        }
    }

    /** Run n periods of engine time with per-epoch traffic. */
    void
    runPeriods(unsigned n, double hot_rate, unsigned hot_pages)
    {
        for (Ns t = now_; t < now_ + n * kPeriod; t += kNsPerSec) {
            engine_.tick(t);
            runEpochTraffic(hot_rate, hot_pages);
        }
        now_ += n * kPeriod;
    }

    TieredMemory memory_;
    AddressSpace space_;
    TlbShards tlb_;
    BadgerTrap trap_;
    Kstaled kstaled_;
    LlcShards llc_;
    PageMigrator migrator_;
    MemCgroup cgroup_;
    ThermostatPolicy engine_;
    Addr heap_ = 0;
    Ns now_ = 0;
};

TEST_F(EngineTest, TargetRateMatchesPaperArithmetic)
{
    EXPECT_NEAR(engine_.targetRate(), 30000.0, 1e-9);
}

TEST_F(EngineTest, IdlePagesBecomeCold)
{
    // 10 hot pages at 1M acc/s; 40 idle pages.
    runPeriods(6, 1.0e6, 10);
    EXPECT_GT(engine_.placedHugePages().size(), 10u);
    // Hot pages must stay in fast memory.
    for (unsigned i = 0; i < 10; ++i) {
        EXPECT_EQ(space_.tierOf(heap_ + i * kPageSize2M),
                  Tier::Fast)
            << "hot page " << i << " was demoted";
    }
    // Cold pages live in the slow tier and stay poisoned for
    // monitoring.
    for (const Addr page : engine_.placedHugePages()) {
        EXPECT_EQ(space_.tierOf(page), Tier::Slow);
        EXPECT_TRUE(trap_.isPoisoned(page));
    }
}

TEST_F(EngineTest, ColdBytesMatchesSetSizes)
{
    runPeriods(4, 1.0e6, 10);
    EXPECT_EQ(engine_.coldBytes(),
              engine_.placedHugePages().size() * kPageSize2M +
                  engine_.placedBasePages().size() * kPageSize4K);
}

TEST_F(EngineTest, SampledHotPagesCollapseBack)
{
    runPeriods(4, 1.0e6, 10);
    // No page may be left split: hot samples collapse back, cold
    // ones collapse before migration.
    std::uint64_t base_leaves = space_.pageTable().baseLeafCount();
    // Only pages currently mid-pipeline may be split; after the
    // classify stage of the last period, at most one sample cohort
    // (20%) is split.
    EXPECT_LE(base_leaves, 12 * kSubpagesPerHuge);
    EXPECT_EQ(engine_.engineStats().collapseFailures, 0u);
}

TEST_F(EngineTest, CorrectionPromotesPageThatTurnsHot)
{
    runPeriods(8, 1.0e6, 10);
    const auto cold_before = engine_.placedHugePages();
    ASSERT_FALSE(cold_before.empty());
    // One cold page becomes blazing hot: inject counts well above
    // the 30K budget for a full period.
    const Addr turncoat = *cold_before.begin();
    for (Ns t = now_; t < now_ + 2 * kPeriod; t += kNsPerSec) {
        engine_.tick(t);
        runEpochTraffic(1.0e6, 10);
        if (trap_.isPoisoned(turncoat)) {
            trap_.recordAccess(turncoat, 100000);
        }
    }
    now_ += 2 * kPeriod;
    EXPECT_EQ(engine_.placedHugePages().count(turncoat), 0u)
        << "hot page was not promoted";
    EXPECT_EQ(space_.tierOf(turncoat), Tier::Fast);
    EXPECT_GT(engine_.engineStats().promotions, 0u);
}

TEST_F(EngineTest, SlowRateSeriesRecordsMeasurements)
{
    runPeriods(4, 1.0e6, 10);
    EXPECT_GE(engine_.slowRateSeries()->size(), 3u);
}

TEST_F(EngineTest, ZeroToleranceKeepsAllInFast)
{
    cgroup_.setTolerableSlowdownPct(0.0);
    runPeriods(6, 1.0e6, 10);
    // Budget 0: only pages with measured rate exactly zero can be
    // placed -- idle pages qualify, but the aggregate must stay 0.
    // All placed pages must have had zero estimated rate.
    EXPECT_EQ(space_.bytesInTier(Tier::Slow),
              engine_.coldBytes());
    // Achieved slow rate must be ~0: no hot page placed.
    for (unsigned i = 0; i < 10; ++i) {
        EXPECT_EQ(space_.tierOf(heap_ + i * kPageSize2M),
                  Tier::Fast);
    }
}

TEST_F(EngineTest, OverheadAccrues)
{
    runPeriods(2, 1.0e6, 10);
    const Ns overhead = engine_.takeOverhead();
    EXPECT_GT(overhead, 0u);
    EXPECT_EQ(engine_.takeOverhead(), 0u) << "take must drain";
    EXPECT_GT(engine_.stats().overheadTime, 0u);
}

TEST_F(EngineTest, RuntimeParameterChangeTakesEffect)
{
    runPeriods(6, 1.0e6, 10);
    const std::size_t cold_at_3pct = engine_.placedHugePages().size();
    // Raise tolerable slowdown at runtime (cgroup write, Sec 5).
    cgroup_.setTolerableSlowdownPct(10.0);
    EXPECT_NEAR(engine_.targetRate(), 100000.0, 1e-9);
    runPeriods(6, 1.0e6, 10);
    EXPECT_GE(engine_.placedHugePages().size(), cold_at_3pct);
}

TEST_F(EngineTest, PeriodsCountAdvances)
{
    runPeriods(3, 1.0e6, 10);
    EXPECT_GE(engine_.stats().decisionPeriods, 2u);
    EXPECT_LE(engine_.stats().decisionPeriods, 4u);
}

} // namespace
} // namespace thermostat
