/**
 * @file
 * Tests for the naive Accessed-bit placement baseline (Figure 1).
 */

#include <gtest/gtest.h>

#include "core/idle_policy.hh"

namespace thermostat
{
namespace
{

class IdlePolicyTest : public ::testing::Test
{
  protected:
    IdlePolicyTest()
        : memory_(TierConfig::dram(128_MiB),
                  TierConfig::slow(128_MiB)),
          space_(memory_),
          tlb_({64, 4}, {1024, 8}),
          trap_(space_, tlb_),
          kstaled_(space_, tlb_),
          llc_({64 * 1024, 64, 4, 30}),
          migrator_(space_, tlb_, &llc_),
          policy_(space_, kstaled_, migrator_, trap_, config())
    {
        heap_ = space_.mapRegion("heap", 16_MiB); // 8 huge pages
    }

    static IdlePolicyConfig
    config()
    {
        IdlePolicyConfig c;
        c.scanPeriod = kNsPerSec;
        c.idleScans = 3;
        return c;
    }

    void
    touch(Addr page)
    {
        space_.pageTable().walk(page).pte->setAccessed();
    }

    /** Run @p seconds of policy time, touching the first n pages. */
    void
    run(unsigned seconds, unsigned hot_pages)
    {
        for (unsigned s = 0; s < seconds; ++s) {
            for (unsigned i = 0; i < hot_pages; ++i) {
                touch(heap_ + i * kPageSize2M);
            }
            policy_.tick(now_);
            now_ += kNsPerSec;
        }
    }

    TieredMemory memory_;
    AddressSpace space_;
    TlbShards tlb_;
    BadgerTrap trap_;
    Kstaled kstaled_;
    LlcShards llc_;
    PageMigrator migrator_;
    IdlePagePolicy policy_;
    Addr heap_ = 0;
    Ns now_ = 0;
};

TEST_F(IdlePolicyTest, PlacesIdlePagesAfterThreshold)
{
    run(2, 2);
    EXPECT_TRUE(policy_.placedPages().empty())
        << "placed before the idle threshold was reached";
    run(4, 2);
    EXPECT_EQ(policy_.placedPages().size(), 6u);
    EXPECT_EQ(policy_.placedBytes(), 6 * kPageSize2M);
    for (const Addr page : policy_.placedPages()) {
        EXPECT_EQ(space_.tierOf(page), Tier::Slow);
        EXPECT_TRUE(trap_.isPoisoned(page));
    }
}

TEST_F(IdlePolicyTest, HotPagesAreNeverPlaced)
{
    run(10, 3);
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_EQ(space_.tierOf(heap_ + i * kPageSize2M),
                  Tier::Fast);
    }
}

TEST_F(IdlePolicyTest, NeverPromotes)
{
    run(6, 2);
    ASSERT_EQ(policy_.placedPages().size(), 6u);
    // Page 2 becomes hot again: the naive policy leaves it in slow
    // memory (that is the Figure 1 trap).
    for (unsigned s = 0; s < 5; ++s) {
        for (unsigned i = 0; i < 3; ++i) {
            touch(heap_ + i * kPageSize2M);
        }
        policy_.tick(now_);
        now_ += kNsPerSec;
    }
    EXPECT_EQ(space_.tierOf(heap_ + 2 * kPageSize2M), Tier::Slow);
}

TEST_F(IdlePolicyTest, IdleFractionTracksScans)
{
    run(6, 2);
    EXPECT_NEAR(policy_.idleFraction(), 6.0 / 8.0, 1e-9);
}

TEST_F(IdlePolicyTest, StatsCountScans)
{
    run(5, 1);
    EXPECT_EQ(policy_.stats().scans, 5u);
}

} // namespace
} // namespace thermostat
