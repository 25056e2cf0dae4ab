/**
 * @file
 * Graceful-degradation tests: what the system does *between* a fault
 * firing and the run completing.  Covers the migration retry/backoff
 * path (rollback consistency included), the slow-tier degradation
 * state machine, and the engine-level responses -- quarantine,
 * placement throttling and wear-retirement evacuation -- end to end.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness.hh"
#include "fault/fault_injector.hh"
#include "sim/simulation.hh"
#include "sys/migration.hh"

namespace thermostat
{
namespace
{

using test::halfColdWorkload;
using test::tinySimConfig;

FaultPlan
mustParse(const std::string &spec)
{
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(FaultPlan::parse(spec, plan, error)) << error;
    return plan;
}

/** Direct-migrator fixture (same shape as test_migration.cc). */
class DegradedMigrationTest : public ::testing::Test
{
  protected:
    explicit DegradedMigrationTest(const MigrationConfig &config = {})
        : memory_(TierConfig::dram(64_MiB), TierConfig::slow(64_MiB)),
          space_(memory_),
          tlb_({64, 4}, {1024, 8}),
          llc_({64 * 1024, 64, 4, 30}),
          migrator_(space_, tlb_, &llc_, config)
    {
        heap_ = space_.mapRegion("heap", 8_MiB);
    }

    void
    attach(const std::string &spec, std::uint64_t seed = 11)
    {
        faults_ =
            std::make_unique<FaultInjector>(mustParse(spec), seed);
        memory_.setFaultInjector(faults_.get());
        migrator_.setFaultInjector(faults_.get());
    }

    TieredMemory memory_;
    AddressSpace space_;
    TlbShards tlb_;
    LlcShards llc_;
    PageMigrator migrator_;
    std::unique_ptr<FaultInjector> faults_;
    Addr heap_ = 0;
};

TEST_F(DegradedMigrationTest, AllocPressureExhaustsRetries)
{
    attach("migration-alloc:p=1");
    const MigrateResult res =
        migrator_.migrate(heap_, Tier::Slow, kNsPerSec);
    EXPECT_FALSE(res.moved);
    const MigrationStats &s = migrator_.stats();
    // One initial attempt + maxRetries retries, all starved.
    EXPECT_EQ(s.retries, 3u);
    EXPECT_EQ(s.injectedAllocFails, 4u);
    EXPECT_EQ(s.failedAllocs, 1u);
    // Exponential backoff: 50us + 100us + 200us.
    EXPECT_EQ(s.backoffNs, 350'000u);
    EXPECT_EQ(s.bytesDemoted, 0u);
    // Nothing moved, nothing leaked.
    EXPECT_EQ(space_.tierOf(heap_), Tier::Fast);
    EXPECT_EQ(memory_.slow().usedBytes(), 0u);
}

class CappedBackoffTest : public DegradedMigrationTest
{
  protected:
    static MigrationConfig
    cappedConfig()
    {
        MigrationConfig config;
        config.maxRetries = 8;
        config.backoffCapNs = 200'000;
        return config;
    }
    CappedBackoffTest() : DegradedMigrationTest(cappedConfig()) {}
};

TEST_F(CappedBackoffTest, BackoffIsCapped)
{
    attach("migration-alloc:p=1");
    migrator_.migrate(heap_, Tier::Slow, kNsPerSec);
    const MigrationStats &s = migrator_.stats();
    EXPECT_EQ(s.retries, 8u);
    // 50k + 100k + 200k + 5 * 200k (capped).
    EXPECT_EQ(s.backoffNs, 1'350'000u);
}

TEST_F(DegradedMigrationTest, CopyAbortRollsBackCleanly)
{
    attach("migration-copy:p=1");
    const MigrateResult res =
        migrator_.migrate(heap_, Tier::Slow, kNsPerSec);
    EXPECT_FALSE(res.moved);
    const MigrationStats &s = migrator_.stats();
    EXPECT_EQ(s.copyAborts, 4u); // 1 attempt + 3 retries
    // Each abort tears the copy halfway through a 2MB page.
    EXPECT_EQ(s.bytesAborted, 4u * kPageSize2M / 2);
    EXPECT_EQ(s.bytesDemoted, 0u);
    EXPECT_EQ(s.hugeDemotions, 0u);
    // Rollback: mapping intact in the source tier, destination
    // frames returned, and no migration traffic billed to the tier
    // (aborted bytes are wear, not migration -- the lifecycle
    // auditor cross-checks this in full runs).
    EXPECT_EQ(space_.tierOf(heap_), Tier::Fast);
    EXPECT_EQ(memory_.slow().usedBytes(), 0u);
    EXPECT_EQ(memory_.slow().stats().migrationBytesIn, 0u);
    // The torn copy still consumed time.
    EXPECT_GT(res.cost, 0u);
}

TEST_F(DegradedMigrationTest, TransientFaultRecoversViaRetry)
{
    // Deterministic burst: exactly the first two attempts abort.
    attach("migration-copy:burst=2");
    const MigrateResult res =
        migrator_.migrate(heap_, Tier::Slow, kNsPerSec);
    EXPECT_TRUE(res.moved);
    const MigrationStats &s = migrator_.stats();
    EXPECT_EQ(s.copyAborts, 2u);
    EXPECT_EQ(s.retries, 2u);
    EXPECT_EQ(s.backoffNs, 150'000u); // 50us + 100us
    EXPECT_EQ(s.hugeDemotions, 1u);
    EXPECT_EQ(s.bytesDemoted, kPageSize2M);
    EXPECT_EQ(space_.tierOf(heap_), Tier::Slow);
}

TEST_F(DegradedMigrationTest, DegradationStateFollowsWindows)
{
    attach("slow-latency:from=10,until=20,factor=3;"
           "slow-bandwidth:from=10,until=20,factor=2");
    memory_.advanceFaultState(5 * kNsPerSec);
    EXPECT_TRUE(memory_.slowHealthy());
    EXPECT_EQ(memory_.slowFaultExcess(), 0u);
    EXPECT_DOUBLE_EQ(memory_.slowCopySlowdown(), 1.0);

    memory_.advanceFaultState(15 * kNsPerSec);
    EXPECT_FALSE(memory_.slowHealthy());
    // Latency excess: (factor - 1) * slow read latency.
    EXPECT_EQ(memory_.slowFaultExcess(),
              2 * memory_.slow().config().readLatency);
    EXPECT_DOUBLE_EQ(memory_.slowCopySlowdown(), 2.0);

    memory_.advanceFaultState(25 * kNsPerSec);
    EXPECT_TRUE(memory_.slowHealthy());
    EXPECT_EQ(memory_.slowFaultExcess(), 0u);
    EXPECT_DOUBLE_EQ(memory_.slowCopySlowdown(), 1.0);
}

TEST_F(DegradedMigrationTest, BandwidthEpisodeRaisesCopyCost)
{
    const MigrateResult clean =
        migrator_.migrate(heap_, Tier::Slow, kNsPerSec);
    migrator_.migrate(heap_, Tier::Fast, kNsPerSec);
    attach("slow-bandwidth:from=0,until=100,factor=4");
    memory_.advanceFaultState(kNsPerSec);
    const MigrateResult degraded =
        migrator_.migrate(heap_, Tier::Slow, kNsPerSec);
    ASSERT_TRUE(clean.moved);
    ASSERT_TRUE(degraded.moved);
    EXPECT_GT(degraded.cost, clean.cost);
}

TEST_F(DegradedMigrationTest, WearRetirementEvacuatesBlocks)
{
    migrator_.migrate(heap_, Tier::Slow, kNsPerSec);
    attach("wear-retire:at=30,count=2");
    memory_.advanceFaultState(31 * kNsPerSec);
    const std::vector<Pfn> evacuations = memory_.takeEvacuations();
    // Only one slow block is allocated; retirement is clamped to it.
    ASSERT_EQ(evacuations.size(), 1u);
    EXPECT_TRUE(
        memory_.slow().allocator().blockRetired(evacuations[0]));
    // Still mapped (frames keep working until freed) ...
    EXPECT_EQ(space_.tierOf(heap_), Tier::Slow);
    // ... and promoting it off the retired block retires the frames.
    const MigrateResult res =
        migrator_.migrate(heap_, Tier::Fast, 32 * kNsPerSec);
    EXPECT_TRUE(res.moved);
    EXPECT_EQ(memory_.slow().allocator().retiredFrames(),
              kSubpagesPerHuge);
    // takeEvacuations drains.
    EXPECT_TRUE(memory_.takeEvacuations().empty());
}

// --- End-to-end engine responses --------------------------------

TEST(Degradation, QuarantineLifecycle)
{
    SimConfig config = tinySimConfig(21);
    config.duration = 90 * kNsPerSec;
    config.params.sampleFraction = 1.0;
    config.params.samplingPeriod = 6 * kNsPerSec;
    config.params.quarantineThreshold = 2;
    config.params.quarantineDuration = 10 * kNsPerSec;
    // Every demotion copy is torn for the first 30 seconds.
    std::string error;
    ASSERT_TRUE(FaultPlan::parse("migration-copy:p=1,from=0,until=30",
                                 config.faultPlan, error))
        << error;
    Simulation sim(halfColdWorkload(), config);
    const SimResult r = sim.run();
    EXPECT_EQ(r.auditViolations, 0u);
    // Pages failed repeatedly, got benched, came back, and were
    // finally placed once the fault episode ended.
    EXPECT_GT(r.migration.copyAborts, 0u);
    EXPECT_GT(r.engine.quarantined, 0u);
    EXPECT_GT(r.engine.unquarantined, 0u);
    EXPECT_GT(r.finalColdFraction, 0.0);
    EXPECT_GT(r.migration.bytesDemoted, 0u);
    // Nothing left benched at the end of a healthy tail.
    EXPECT_EQ(sim.engine().quarantinedPages(), 0u);
}

TEST(Degradation, PlacementThrottledWhileSlowTierUnhealthy)
{
    SimConfig config = tinySimConfig(22);
    config.duration = 90 * kNsPerSec;
    std::string error;
    ASSERT_TRUE(
        FaultPlan::parse("slow-bandwidth:from=0,until=10000,factor=2",
                         config.faultPlan, error))
        << error;
    Simulation sim(halfColdWorkload(), config);
    const SimResult r = sim.run();
    EXPECT_EQ(r.auditViolations, 0u);
    // The engine classified cold pages but refused to demote onto a
    // degraded device.
    EXPECT_GT(r.engine.throttledPeriods, 0u);
    EXPECT_EQ(r.migration.bytesDemoted, 0u);
    EXPECT_DOUBLE_EQ(r.finalColdFraction, 0.0);
}

TEST(Degradation, WearBurstEvacuationPromotesOffRetiredBlocks)
{
    SimConfig config = tinySimConfig(23);
    config.duration = 150 * kNsPerSec;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse("wear-retire:at=100,count=2",
                                 config.faultPlan, error))
        << error;
    Simulation sim(halfColdWorkload(), config);
    const SimResult r = sim.run();
    EXPECT_EQ(r.auditViolations, 0u);
    EXPECT_GT(r.engine.evacuationPromotions, 0u);
    // The evacuated blocks drained into retirement.
    EXPECT_GE(sim.machine()
                  .memory()
                  .slow()
                  .allocator()
                  .retiredFrames(),
              kSubpagesPerHuge);
    // The trace recorded the retirement.
    Count retire_events = 0;
    for (const TraceEvent &ev : sim.tracer().events()) {
        if (ev.kind == EventKind::FrameRetired) {
            ++retire_events;
        }
    }
    EXPECT_GT(retire_events, 0u);
}

TEST(Degradation, DemoPlanCompletesWithCleanAudit)
{
    // The acceptance scenario: probabilistic copy failure plus a
    // wear burst, full run, nonzero fault metrics, clean audit.
    SimConfig config = tinySimConfig(24);
    std::string error;
    ASSERT_TRUE(
        FaultPlan::parse("migration-copy:p=0.2;wear-retire:at=60,"
                         "count=1",
                         config.faultPlan, error))
        << error;
    Simulation sim(halfColdWorkload(), config);
    const SimResult r = sim.run();
    EXPECT_EQ(r.auditViolations, 0u);
    EXPECT_GT(r.migration.retries, 0u);
    EXPECT_GT(r.migration.copyAborts, 0u);
    EXPECT_GT(r.migration.bytesDemoted, 0u);
    EXPECT_GT(r.finalColdFraction, 0.0);
}

TEST(Degradation, FaultRunsAreDeterministic)
{
    SimConfig config = tinySimConfig(25);
    config.duration = 90 * kNsPerSec;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "migration-copy:p=0.3;migration-alloc:p=0.2;"
        "slow-latency:from=20,until=40,factor=3;"
        "wear-retire:at=50,count=1",
        config.faultPlan, error))
        << error;
    Simulation a(halfColdWorkload(), config);
    Simulation b(halfColdWorkload(), config);
    const SimResult ra = a.run();
    const SimResult rb = b.run();
    EXPECT_DOUBLE_EQ(ra.slowdown, rb.slowdown);
    EXPECT_EQ(ra.migration.copyAborts, rb.migration.copyAborts);
    EXPECT_EQ(ra.migration.retries, rb.migration.retries);
    EXPECT_EQ(ra.migration.bytesAborted, rb.migration.bytesAborted);
    EXPECT_EQ(ra.engine.quarantined, rb.engine.quarantined);
    EXPECT_EQ(ra.engine.evacuationPromotions,
              rb.engine.evacuationPromotions);
}

} // namespace
} // namespace thermostat
