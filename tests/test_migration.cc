/**
 * @file
 * Tests for tier-to-tier page migration (paper Sec 3.6, Table 3).
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.hh"
#include "sys/migration.hh"

namespace thermostat
{
namespace
{

class MigrationTest : public ::testing::Test
{
  protected:
    MigrationTest()
        : memory_(TierConfig::dram(64_MiB), TierConfig::slow(64_MiB)),
          space_(memory_),
          tlb_({64, 4}, {1024, 8}),
          llc_({64 * 1024, 64, 4, 30}),
          migrator_(space_, tlb_, &llc_)
    {
        heap_ = space_.mapRegion("heap", 8_MiB);
        conf_ = space_.mapRegion("conf", 16_KiB, 0, false);
    }

    TieredMemory memory_;
    AddressSpace space_;
    TlbShards tlb_;
    LlcShards llc_;
    PageMigrator migrator_;
    Addr heap_ = 0;
    Addr conf_ = 0;
};

TEST_F(MigrationTest, DemoteHugePage)
{
    const MigrateResult res =
        migrator_.migrate(heap_, Tier::Slow, kNsPerSec);
    EXPECT_TRUE(res.moved);
    EXPECT_GT(res.cost, 0u);
    EXPECT_EQ(space_.tierOf(heap_), Tier::Slow);
    EXPECT_EQ(migrator_.stats().hugeDemotions, 1u);
    EXPECT_EQ(migrator_.stats().bytesDemoted, kPageSize2M);
    EXPECT_EQ(memory_.slow().usedBytes(), kPageSize2M);
    // The old fast frames were released.
    EXPECT_EQ(memory_.fast().usedBytes(), 8_MiB - kPageSize2M +
                                              16_KiB);
}

TEST_F(MigrationTest, PromoteBack)
{
    migrator_.migrate(heap_, Tier::Slow, 0);
    const MigrateResult res =
        migrator_.migrate(heap_, Tier::Fast, kNsPerSec);
    EXPECT_TRUE(res.moved);
    EXPECT_EQ(space_.tierOf(heap_), Tier::Fast);
    EXPECT_EQ(migrator_.stats().hugePromotions, 1u);
    EXPECT_EQ(migrator_.stats().bytesPromoted, kPageSize2M);
    EXPECT_EQ(memory_.slow().usedBytes(), 0u);
}

TEST_F(MigrationTest, MigrateBasePage)
{
    const MigrateResult res =
        migrator_.migrate(conf_, Tier::Slow, 0);
    EXPECT_TRUE(res.moved);
    EXPECT_EQ(migrator_.stats().baseDemotions, 1u);
    EXPECT_EQ(migrator_.stats().bytesDemoted, kPageSize4K);
    EXPECT_EQ(space_.tierOf(conf_), Tier::Slow);
}

TEST_F(MigrationTest, NoOpWhenAlreadyPlaced)
{
    const MigrateResult res =
        migrator_.migrate(heap_, Tier::Fast, 0);
    EXPECT_FALSE(res.moved);
    EXPECT_EQ(res.cost, 0u);
    EXPECT_EQ(migrator_.stats().bytesDemoted, 0u);
}

TEST_F(MigrationTest, PoisonSurvivesMigration)
{
    space_.pageTable().walk(heap_).pte->poison();
    migrator_.migrate(heap_, Tier::Slow, 0);
    EXPECT_TRUE(space_.pageTable().walk(heap_).pte->poisoned());
}

TEST_F(MigrationTest, TlbShootdownOnMigration)
{
    tlb_.insert(heap_, space_.pageTable().walk(heap_).pte->pfn(),
                true);
    migrator_.migrate(heap_, Tier::Slow, 0);
    EXPECT_EQ(tlb_.lookup(heap_), TlbHierarchy::HitLevel::Miss);
}

TEST_F(MigrationTest, LlcInvalidatedOnMigration)
{
    const Pfn pfn = space_.pageTable().walk(heap_).pte->pfn();
    (void)llc_.access(laneOf(heap_), pfn * kPageSize4K,
                      AccessType::Read);
    EXPECT_TRUE(llc_.contains(pfn * kPageSize4K));
    migrator_.migrate(heap_, Tier::Slow, 0);
    EXPECT_FALSE(llc_.contains(pfn * kPageSize4K));
}

TEST_F(MigrationTest, FailsWhenTargetFull)
{
    // Fill the slow tier completely.
    while (memory_.allocHuge(Tier::Slow).has_value()) {
    }
    const MigrateResult res =
        migrator_.migrate(heap_, Tier::Slow, 0);
    EXPECT_FALSE(res.moved);
    EXPECT_EQ(migrator_.stats().failedAllocs, 1u);
    EXPECT_EQ(space_.tierOf(heap_), Tier::Fast);
}

TEST_F(MigrationTest, CopyCostScalesWithSize)
{
    const MigrateResult huge =
        migrator_.migrate(heap_, Tier::Slow, 0);
    const MigrateResult base =
        migrator_.migrate(conf_, Tier::Slow, 0);
    EXPECT_GT(huge.cost, base.cost);
}

TEST_F(MigrationTest, BandwidthMetersSeparateDirections)
{
    migrator_.migrate(heap_, Tier::Slow, 0);
    migrator_.migrate(heap_ + kPageSize2M, Tier::Slow,
                      kNsPerSec / 2);
    migrator_.migrate(heap_, Tier::Fast, kNsPerSec / 2);
    const double demote = migrator_.takeDemotionRate(kNsPerSec);
    const double promote = migrator_.takePromotionRate(kNsPerSec);
    EXPECT_GT(demote, 0.0);
    EXPECT_GT(promote, 0.0);
    EXPECT_EQ(migrator_.stats().bytesDemoted, 2 * kPageSize2M);
    EXPECT_EQ(migrator_.stats().bytesPromoted, kPageSize2M);
}

TEST_F(MigrationTest, WearChargedOnSlowTierFill)
{
    migrator_.migrate(heap_, Tier::Slow, 0);
    // 2MB copied in 64B lines.
    EXPECT_EQ(memory_.slow().totalWear(), kPageSize2M / 64);
}

TEST_F(MigrationTest, MigrateUnmappedPanics)
{
    EXPECT_DEATH(migrator_.migrate(Addr{1} << 40, Tier::Slow, 0),
                 "unmapped");
}

/** Admission gate that denies the first N offers, then admits. */
class DenyFirst : public MigrationAdmission
{
  public:
    explicit DenyFirst(unsigned denials) : left_(denials) {}

    bool
    admit(Addr, Tier, std::uint64_t, Ns) override
    {
        if (left_ > 0) {
            --left_;
            return false;
        }
        return true;
    }

  private:
    unsigned left_;
};

TEST_F(MigrationTest, DeniedThenRetriedBilledOnce)
{
    DenyFirst gate(1);
    migrator_.setAdmission(&gate);

    // First attempt: the arbiter refuses.  The page stays put, the
    // denial is billed as denied traffic, and nothing lands in the
    // moved-bytes meters.
    const MigrateResult denied =
        migrator_.migrate(heap_, Tier::Slow, 0);
    EXPECT_FALSE(denied.moved);
    EXPECT_TRUE(denied.denied);
    EXPECT_EQ(denied.cost, 0u);
    EXPECT_EQ(space_.tierOf(heap_), Tier::Fast);
    EXPECT_EQ(migrator_.stats().admissionDenials, 1u);
    EXPECT_EQ(migrator_.stats().bytesDenied, kPageSize2M);
    EXPECT_EQ(migrator_.stats().bytesDemoted, 0u);
    EXPECT_EQ(migrator_.stats().hugeDemotions, 0u);

    // Retry: admitted, and the move is billed exactly once -- the
    // earlier denial must not have left a partial charge behind.
    const MigrateResult retried =
        migrator_.migrate(heap_, Tier::Slow, kNsPerSec);
    EXPECT_TRUE(retried.moved);
    EXPECT_FALSE(retried.denied);
    EXPECT_EQ(space_.tierOf(heap_), Tier::Slow);
    EXPECT_EQ(migrator_.stats().admissionDenials, 1u);
    EXPECT_EQ(migrator_.stats().bytesDenied, kPageSize2M);
    EXPECT_EQ(migrator_.stats().bytesDemoted, kPageSize2M);
    EXPECT_EQ(migrator_.stats().hugeDemotions, 1u);
    EXPECT_EQ(memory_.slow().stats().migrationBytesIn, kPageSize2M);
}

/**
 * Lane-ownership audit.  The migrator invalidates a moved page's old
 * frames only in the LLC slice of the page's lane, and shoots down
 * only that lane's TLB.  This is sound only if no other slice ever
 * caches those frames, including frames that the LIFO free lists hand
 * from one lane's page to another's.  Through a Machine, every page
 * below is filled line by line before each move; after the move no
 * line of any freed frame may be resident in any slice.
 */
class LaneOwnershipAudit : public ::testing::Test
{
  protected:
    static MachineConfig
    config()
    {
        MachineConfig config;
        config.fastTier = TierConfig::dram(64_MiB);
        config.slowTier = TierConfig::slow(64_MiB);
        return config; // the default LLC holds a 2MB page per slice
    }

    LaneOwnershipAudit()
        : machine_(config()),
          migrator_(machine_.space(), machine_.tlb(), &machine_.llc())
    {
        const Addr heap = machine_.space().mapRegion("heap", 16_MiB);
        for (Addr page = heap; page < heap + 16_MiB;
             page += kPageSize2M) {
            pickDistinctLane(page, &huge_);
        }
        // Each region sits in its own 2MB window, and all of their
        // 4KB frames come from one broken fast block.
        for (int i = 0; i < 8; ++i) {
            pickDistinctLane(
                machine_.space().mapRegion("base" + std::to_string(i),
                                           kPageSize4K, 0, false),
                &base_);
        }
    }

    /** Keep @p page if its lane is new to @p pages (up to three). */
    static void
    pickDistinctLane(Addr page, std::vector<Addr> *pages)
    {
        for (Addr kept : *pages) {
            if (laneOf(kept) == laneOf(page)) {
                return;
            }
        }
        if (pages->size() < 3) {
            pages->push_back(page);
        }
    }

    Pfn
    frameOf(Addr page)
    {
        return machine_.space().pageTable().walk(page).pte->pfn();
    }

    unsigned
    framesOf(Addr page)
    {
        return machine_.space().pageTable().walk(page).huge
                   ? kSubpagesPerHuge
                   : 1u;
    }

    /** Write every line of every 4KB frame of @p page. */
    void
    touch(Addr page)
    {
        const unsigned lines =
            static_cast<unsigned>(kPageSize4K / kLine);
        for (unsigned i = 0; i < framesOf(page); ++i) {
            (void)machine_.access(page + i * kPageSize4K,
                                  AccessType::Write, 1, lines);
        }
    }

    /** Lines of the frames [first, first + frames) in any slice. */
    unsigned
    residentLines(Pfn first, unsigned frames)
    {
        unsigned resident = 0;
        const Addr end = (first + frames) * kPageSize4K;
        for (Addr a = first * kPageSize4K; a < end; a += kLine) {
            resident += machine_.llc().contains(a) ? 1 : 0;
        }
        return resident;
    }

    std::array<Count, kMachineLanes>
    tlbInvalidations()
    {
        std::array<Count, kMachineLanes> counts{};
        for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
            const TlbHierarchy &tlb = machine_.tlb().lane(lane);
            counts[lane] = tlb.l1().stats().invalidations +
                           tlb.l2().stats().invalidations;
        }
        return counts;
    }

    /**
     * Move @p page (filled beforehand) to @p target, audit every
     * frame freed so far and still free, then refill the page at its
     * new frames.
     */
    void
    moveAndAudit(Addr page, Tier target)
    {
        const Pfn old_pfn = frameOf(page);
        const unsigned frames = framesOf(page);
        ASSERT_GT(residentLines(old_pfn, frames), 0u)
            << "audit would be vacuous: page not cached";
        const auto before = tlbInvalidations();

        ASSERT_TRUE(migrator_.migrate(page, target, 0).moved);

        const auto after = tlbInvalidations();
        for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
            if (lane == laneOf(page)) {
                EXPECT_GT(after[lane], before[lane]) << "lane " << lane;
            } else {
                EXPECT_EQ(after[lane], before[lane]) << "lane " << lane;
            }
        }

        // The page's new frames are live again; its old ones are free.
        const Pfn new_pfn = frameOf(page);
        std::erase_if(freed_, [&](const std::pair<Pfn, unsigned> &r) {
            return r.first < new_pfn + frames &&
                   new_pfn < r.first + r.second;
        });
        freed_.emplace_back(old_pfn, frames);
        for (const auto &[first, count] : freed_) {
            EXPECT_EQ(residentLines(first, count), 0u)
                << "freed frames at pfn " << first << " still cached";
        }
        touch(page);
    }

    static constexpr Addr kLine = 64;

    Machine machine_;
    PageMigrator migrator_;
    std::vector<Addr> huge_;
    std::vector<Addr> base_;
    std::vector<std::pair<Pfn, unsigned>> freed_;
};

TEST_F(LaneOwnershipAudit, FreedFramesLeaveNoLineInAnySlice)
{
    ASSERT_EQ(huge_.size(), 3u);
    ASSERT_EQ(base_.size(), 3u);
    for (Addr page : huge_) {
        ASSERT_TRUE(machine_.space().pageTable().walk(page).huge);
        touch(page);
    }
    for (Addr page : base_) {
        touch(page);
    }

    // Huge pages: H1's slow copy comes back to the fast frames H0
    // just left (LIFO), so one lane's freed frames are reused by
    // another lane's page; H2 then takes H1's old slow frames.
    const Pfn h0_fast = frameOf(huge_[0]);
    moveAndAudit(huge_[1], Tier::Slow);
    moveAndAudit(huge_[0], Tier::Slow);
    const Pfn h1_slow = frameOf(huge_[1]);
    moveAndAudit(huge_[1], Tier::Fast);
    EXPECT_EQ(frameOf(huge_[1]), h0_fast);
    moveAndAudit(huge_[2], Tier::Slow);
    EXPECT_EQ(frameOf(huge_[2]), h1_slow);
    moveAndAudit(huge_[0], Tier::Fast);

    // 4KB pages, the same cross-lane reuse through a broken block's
    // free list, in both tiers.
    const Pfn b0_fast = frameOf(base_[0]);
    moveAndAudit(base_[1], Tier::Slow);
    moveAndAudit(base_[0], Tier::Slow);
    const Pfn b1_slow = frameOf(base_[1]);
    moveAndAudit(base_[1], Tier::Fast);
    EXPECT_EQ(frameOf(base_[1]), b0_fast);
    moveAndAudit(base_[2], Tier::Slow);
    EXPECT_EQ(frameOf(base_[2]), b1_slow);
    moveAndAudit(base_[0], Tier::Fast);
}

} // namespace
} // namespace thermostat
