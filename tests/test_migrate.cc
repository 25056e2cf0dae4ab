/**
 * @file
 * Migration-subsystem tests (the ctest `migrate` label): bounded
 * queue invariants (occupancy <= capacity, FIFO issue order,
 * service-budget adherence), transactional abort/rollback on dirty
 * revalidation, non-exclusive residency bookkeeping (the shadow
 * ledger always matches the memory model), determinism of the
 * queue-riding engines across the jobs x shards matrix, and the
 * pass-through guarantee for the five legacy engines.
 */

#include <cstdlib>
#include <utility>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hh"
#include "migrate/migration_queue.hh"
#include "migrate/transaction_engine.hh"
#include "policy/policy_factory.hh"
#include "sys/badger_trap.hh"

namespace thermostat
{
namespace
{

using test::halfColdWorkload;
using test::tinySimConfig;
using test::writeHeavyWorkload;

/** Pins THERMOSTAT_JOBS for one scope (restores on destruction). */
class ScopedJobs
{
  public:
    explicit ScopedJobs(const char *value)
    {
        const char *old = std::getenv("THERMOSTAT_JOBS");
        had_ = old != nullptr;
        if (had_) {
            saved_ = old;
        }
        ::setenv("THERMOSTAT_JOBS", value, 1);
    }

    ~ScopedJobs()
    {
        if (had_) {
            ::setenv("THERMOSTAT_JOBS", saved_.c_str(), 1);
        } else {
            ::unsetenv("THERMOSTAT_JOBS");
        }
    }

  private:
    bool had_ = false;
    std::string saved_;
};

// ---------------------------------------------------------------
// Queue + transaction unit fixture
// ---------------------------------------------------------------

class MigrateQueueTest : public ::testing::Test
{
  protected:
    explicit MigrateQueueTest(MigrationQueueConfig config = {})
        : memory_(TierConfig::dram(64_MiB), TierConfig::slow(64_MiB)),
          space_(memory_),
          tlb_({64, 4}, {1024, 8}),
          llc_({64 * 1024, 64, 4, 30}),
          migrator_(space_, tlb_, &llc_),
          trap_(space_, tlb_),
          txn_(space_, migrator_),
          queue_(migrator_, trap_, txn_, config)
    {
        heap_ = space_.mapRegion("heap", 8_MiB);
        conf_ = space_.mapRegion("conf", 64_KiB, 0, false);
        queue_.activate();
        txn_.activate();
    }

    Addr
    hugeLeaf(unsigned i) const
    {
        return heap_ + i * kPageSize2M;
    }

    Addr
    baseLeaf(unsigned i) const
    {
        return conf_ + i * kPageSize4K;
    }

    TieredMemory memory_;
    AddressSpace space_;
    TlbShards tlb_;
    LlcShards llc_;
    PageMigrator migrator_;
    BadgerTrap trap_;
    TransactionEngine txn_;
    MigrationQueue queue_;
    Addr heap_ = 0;
    Addr conf_ = 0;
};

/** Same fixture with a 4-deep queue and a 2MB/epoch budget. */
class TinyQueueTest : public MigrateQueueTest
{
  protected:
    TinyQueueTest() : MigrateQueueTest({4, kPageSize2M, 0.75}) {}
};

TEST_F(TinyQueueTest, BoundedQueueRejectsWhenFull)
{
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_TRUE(queue_.enqueueLeaf(hugeLeaf(i), true, Tier::Slow));
        EXPECT_LE(queue_.occupancy(), queue_.config().capacity);
    }
    EXPECT_FALSE(queue_.enqueueLeaf(hugeLeaf(4), true, Tier::Slow));
    EXPECT_EQ(queue_.occupancy(), 4u);
    EXPECT_EQ(queue_.stats().rejectedFull, 1u);
    EXPECT_EQ(queue_.stats().occupancyPeak, 4u);
    EXPECT_DOUBLE_EQ(queue_.pressure(), 1.0);
    EXPECT_TRUE(queue_.busy());
}

TEST_F(TinyQueueTest, ServiceBudgetBoundsEachEpoch)
{
    for (unsigned i = 0; i < 4; ++i) {
        ASSERT_TRUE(queue_.enqueueLeaf(hugeLeaf(i), true, Tier::Slow));
    }
    // 2MB budget, 2MB leaves: exactly one issues per step, in FIFO
    // order, and the rest age in place.
    for (unsigned epoch = 0; epoch < 4; ++epoch) {
        const Ns cost = queue_.step(kNsPerSec * (epoch + 1));
        EXPECT_GT(cost, 0u);
        EXPECT_EQ(queue_.occupancy(), 3u - epoch);
        const auto done = queue_.takeCompletions();
        ASSERT_EQ(done.size(), 1u);
        EXPECT_EQ(done[0].base, hugeLeaf(epoch));
        EXPECT_TRUE(done[0].moved);
        EXPECT_EQ(space_.tierOf(hugeLeaf(epoch)), Tier::Slow);
        EXPECT_TRUE(trap_.isPoisoned(hugeLeaf(epoch)));
    }
    EXPECT_EQ(queue_.stats().issued, 4u);
    EXPECT_EQ(queue_.stats().bytesIssued, 4 * kPageSize2M);
    // Head waited 0 epochs, then 1, 2, 3: mean 1.5.
    EXPECT_EQ(queue_.stats().waitEpochsSum, 6u);
    EXPECT_DOUBLE_EQ(queue_.stats().waitEpochsMean(), 1.5);
}

TEST_F(MigrateQueueTest, FifoIssueOrderWithinOneStep)
{
    // Mixed base/huge requests all fit the default budget: the
    // completion stream must replay the enqueue order exactly.
    ASSERT_TRUE(queue_.enqueueLeaf(baseLeaf(2), false, Tier::Slow));
    ASSERT_TRUE(queue_.enqueueLeaf(hugeLeaf(0), true, Tier::Slow));
    ASSERT_TRUE(queue_.enqueueLeaf(baseLeaf(0), false, Tier::Slow));
    queue_.step(kNsPerSec);
    const auto done = queue_.takeCompletions();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0].base, baseLeaf(2));
    EXPECT_EQ(done[1].base, hugeLeaf(0));
    EXPECT_EQ(done[2].base, baseLeaf(0));
    for (std::size_t i = 1; i < done.size(); ++i) {
        EXPECT_LT(done[i - 1].seq, done[i].seq);
    }
    EXPECT_EQ(queue_.occupancy(), 0u);
    EXPECT_EQ(queue_.takeCompletions().size(), 0u);
}

TEST_F(MigrateQueueTest, RunRequestFansOutPerLeaf)
{
    ASSERT_TRUE(queue_.enqueueRun(baseLeaf(0), 4, Tier::Slow));
    EXPECT_EQ(queue_.occupancy(), 1u); // one slot for the whole run
    queue_.step(kNsPerSec);
    const auto done = queue_.takeCompletions();
    ASSERT_EQ(done.size(), 4u);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(done[i].base, baseLeaf(i));
        EXPECT_EQ(done[i].seq, done[0].seq); // shared request seq
        EXPECT_TRUE(done[i].moved);
        EXPECT_EQ(space_.tierOf(baseLeaf(i)), Tier::Slow);
    }
    EXPECT_EQ(queue_.stats().issued, 1u);
    EXPECT_EQ(queue_.stats().bytesIssued, 4 * kPageSize4K);
    EXPECT_EQ(queue_.stats().leavesMoved, 4u);
}

TEST_F(MigrateQueueTest, TransactionalMoveIsNonExclusiveForOneEpoch)
{
    ASSERT_TRUE(
        queue_.enqueueLeaf(hugeLeaf(0), true, Tier::Slow, true));
    queue_.step(kNsPerSec);

    // Shadow epoch: the page is still mapped fast, but the slow
    // tier already holds a (ledgered) copy -- resident in both.
    EXPECT_EQ(space_.tierOf(hugeLeaf(0)), Tier::Fast);
    EXPECT_EQ(queue_.inflight(), 1u);
    EXPECT_EQ(std::as_const(memory_).shadowBytes(Tier::Slow), kPageSize2M);
    EXPECT_EQ(txn_.ledgerBytes(Tier::Slow), kPageSize2M);
    EXPECT_EQ(txn_.verifyLedger(), 0u);
    EXPECT_EQ(queue_.takeCompletions().size(), 0u);
    // The shadow copy is not migration traffic: nothing moved yet.
    EXPECT_EQ(migrator_.stats().bytesDemoted, 0u);

    // Commit epoch: clean transaction lands, shadow released, and
    // the audited migration traffic flows exactly once.
    queue_.step(2 * kNsPerSec);
    EXPECT_EQ(space_.tierOf(hugeLeaf(0)), Tier::Slow);
    EXPECT_TRUE(trap_.isPoisoned(hugeLeaf(0)));
    EXPECT_EQ(std::as_const(memory_).shadowBytes(Tier::Slow), 0u);
    EXPECT_EQ(txn_.verifyLedger(), 0u);
    EXPECT_EQ(txn_.stats().commits, 1u);
    EXPECT_EQ(migrator_.stats().bytesDemoted, kPageSize2M);
    const auto done = queue_.takeCompletions();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done[0].moved);
    EXPECT_FALSE(done[0].aborted);
}

TEST_F(MigrateQueueTest, DirtyTransactionRollsBack)
{
    ASSERT_TRUE(
        queue_.enqueueLeaf(hugeLeaf(0), true, Tier::Slow, true));
    queue_.step(kNsPerSec);
    // A write races the shadow copy: dirty-revalidation must abort.
    txn_.markDirty(hugeLeaf(0), kNsPerSec);
    queue_.step(2 * kNsPerSec);

    EXPECT_EQ(space_.tierOf(hugeLeaf(0)), Tier::Fast); // rolled back
    EXPECT_FALSE(trap_.isPoisoned(hugeLeaf(0)));
    EXPECT_EQ(std::as_const(memory_).shadowBytes(Tier::Slow), 0u);
    EXPECT_EQ(txn_.verifyLedger(), 0u);
    EXPECT_EQ(txn_.stats().aborts, 1u);
    EXPECT_EQ(txn_.stats().dirtyAborts, 1u);
    EXPECT_EQ(txn_.stats().commits, 0u);
    EXPECT_EQ(migrator_.stats().bytesDemoted, 0u);
    // The wasted shadow copy is billed as wear on the slow tier.
    EXPECT_GT(memory_.slow().totalWear(), 0u);
    const auto done = queue_.takeCompletions();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].moved);
    EXPECT_TRUE(done[0].aborted);
    EXPECT_EQ(queue_.stats().leavesAborted, 1u);
}

TEST_F(MigrateQueueTest, ReplicaBackedDemotionSkipsTheShadow)
{
    // Promote transactionally with retain: after the commit the
    // page runs fast while the slow tier keeps a read replica.
    ASSERT_TRUE(queue_.enqueueLeaf(hugeLeaf(0), true, Tier::Slow));
    queue_.step(kNsPerSec);
    queue_.takeCompletions();
    ASSERT_TRUE(queue_.enqueueLeaf(hugeLeaf(0), true, Tier::Fast,
                                   true, true));
    queue_.step(2 * kNsPerSec);
    queue_.step(3 * kNsPerSec);
    queue_.takeCompletions();
    EXPECT_EQ(space_.tierOf(hugeLeaf(0)), Tier::Fast);
    EXPECT_TRUE(txn_.hasReplica(hugeLeaf(0)));
    EXPECT_EQ(std::as_const(memory_).shadowBytes(Tier::Slow), kPageSize2M);
    EXPECT_EQ(txn_.stats().replicasRetained, 1u);
    EXPECT_EQ(txn_.verifyLedger(), 0u);

    // Demoting a replica-backed page consumes the replica in place
    // of a shadow: the request resolves in one epoch even when
    // flagged transactional.
    const std::uint64_t demoted_before =
        migrator_.stats().bytesDemoted;
    ASSERT_TRUE(
        queue_.enqueueLeaf(hugeLeaf(0), true, Tier::Slow, true));
    queue_.step(4 * kNsPerSec);
    EXPECT_EQ(space_.tierOf(hugeLeaf(0)), Tier::Slow);
    EXPECT_FALSE(txn_.hasReplica(hugeLeaf(0)));
    EXPECT_EQ(std::as_const(memory_).shadowBytes(Tier::Slow), 0u);
    EXPECT_EQ(txn_.stats().replicasConsumed, 1u);
    EXPECT_EQ(migrator_.stats().bytesDemoted,
              demoted_before + kPageSize2M);
    EXPECT_EQ(txn_.verifyLedger(), 0u);
}

TEST_F(MigrateQueueTest, WriteDropsTheReadReplica)
{
    ASSERT_TRUE(queue_.enqueueLeaf(hugeLeaf(0), true, Tier::Slow));
    queue_.step(kNsPerSec);
    ASSERT_TRUE(queue_.enqueueLeaf(hugeLeaf(0), true, Tier::Fast,
                                   true, true));
    queue_.step(2 * kNsPerSec);
    queue_.step(3 * kNsPerSec);
    ASSERT_TRUE(txn_.hasReplica(hugeLeaf(0)));

    // The first write invalidates the stale slow copy immediately.
    txn_.markDirty(hugeLeaf(0), 4 * kNsPerSec);
    EXPECT_FALSE(txn_.hasReplica(hugeLeaf(0)));
    EXPECT_EQ(std::as_const(memory_).shadowBytes(Tier::Slow), 0u);
    EXPECT_EQ(txn_.stats().replicasDropped, 1u);
    EXPECT_EQ(txn_.verifyLedger(), 0u);
}

// ---------------------------------------------------------------
// Whole-simulation suites
// ---------------------------------------------------------------

SimResult
runEngine(const std::string &policy, std::uint64_t seed,
          unsigned shards)
{
    SimConfig config = tinySimConfig(seed);
    config.policy = policy;
    config.policyParams.coldFraction = 0.4;
    config.shards = shards;
    config.duration = 60 * kNsPerSec;
    Simulation sim(halfColdWorkload(), config);
    return sim.run();
}

TEST(MigrateEngines, NomadLedgerMatchesMemoryEveryEpochUnderWrites)
{
    SimConfig config = tinySimConfig(5);
    config.policy = "nomad";
    config.policyParams.coldFraction = 0.4;
    config.duration = 60 * kNsPerSec;
    Simulation sim(writeHeavyWorkload(), config);
    sim.setEpochHook([](Simulation &s, Ns) {
        // Non-exclusive residency bookkeeping: every tier's used
        // bytes must decompose into mapped leaves plus the shadow
        // ledger -- after every epoch, dirty rollbacks included.
        std::uint64_t mapped_fast = 0;
        std::uint64_t mapped_slow = 0;
        s.machine().space().pageTable().forEachLeaf(
            [&](Addr, Pte &pte, bool huge) {
                const std::uint64_t bytes =
                    huge ? kPageSize2M : kPageSize4K;
                if (s.machine().memory().tierOf(pte.pfn()) ==
                    Tier::Fast) {
                    mapped_fast += bytes;
                } else {
                    mapped_slow += bytes;
                }
            });
        TieredMemory &memory = s.machine().memory();
        EXPECT_EQ(memory.fast().usedBytes(),
                  mapped_fast +
                      std::as_const(memory).shadowBytes(Tier::Fast));
        EXPECT_EQ(memory.slow().usedBytes(),
                  mapped_slow +
                      std::as_const(memory).shadowBytes(Tier::Slow));
        EXPECT_EQ(s.transactionEngine().verifyLedger(), 0u);
    });
    const SimResult r = sim.run();
    EXPECT_EQ(r.auditViolations, 0u);
    EXPECT_EQ(r.transactions.ledgerViolations, 0u);
    EXPECT_GT(r.transactions.begins, 0u);
    // The writer must land on open demotion transactions, so the
    // ledger scan above sees rollbacks.
    EXPECT_GT(r.transactions.dirtyAborts, 0u);
    EXPECT_EQ(r.transactions.aborts, r.transactions.dirtyAborts);
    EXPECT_GT(r.queue.issued, 0u);
}

TEST(MigrateEngines, QueueEnginesAreDeterministicAcrossJobsShards)
{
    for (const char *policy : {"nomad", "remap"}) {
        SCOPED_TRACE(policy);
        SimResult first;
        bool have_first = false;
        for (const auto &cell :
             {std::pair<const char *, unsigned>{"1", 1},
              std::pair<const char *, unsigned>{"4", 8}}) {
            ScopedJobs jobs(cell.first);
            const SimResult r = runEngine(policy, 11, cell.second);
            if (!have_first) {
                first = r;
                have_first = true;
                EXPECT_GT(r.queue.enqueued, 0u);
                EXPECT_GT(r.queue.occupancyPeak, 0u);
                continue;
            }
            EXPECT_EQ(r.slowdown, first.slowdown);
            EXPECT_EQ(r.finalColdFraction, first.finalColdFraction);
            EXPECT_EQ(r.queue.enqueued, first.queue.enqueued);
            EXPECT_EQ(r.queue.issued, first.queue.issued);
            EXPECT_EQ(r.queue.bytesIssued, first.queue.bytesIssued);
            EXPECT_EQ(r.queue.occupancyPeak,
                      first.queue.occupancyPeak);
            EXPECT_EQ(r.queue.waitEpochsSum,
                      first.queue.waitEpochsSum);
            EXPECT_EQ(r.transactions.begins,
                      first.transactions.begins);
            EXPECT_EQ(r.transactions.commits,
                      first.transactions.commits);
            EXPECT_EQ(r.transactions.aborts,
                      first.transactions.aborts);
            EXPECT_EQ(r.policy.demotionsOrdered,
                      first.policy.demotionsOrdered);
            EXPECT_EQ(r.policy.promotionsOrdered,
                      first.policy.promotionsOrdered);
        }
    }
}

TEST(MigrateEngines, RemapDemotesAtMultipleGranularities)
{
    const SimResult r = runEngine("remap", 11, 1);
    EXPECT_GT(r.queue.enqueued, 0u);
    EXPECT_GT(r.queue.bytesIssued, 0u);
    EXPECT_EQ(r.transactions.begins, 0u); // remap never transacts
    EXPECT_EQ(r.auditViolations, 0u);
}

TEST(MigrateEngines, LegacyEnginesNeverTouchTheQueue)
{
    // Pass-through guarantee: the five direct-migration engines
    // leave the queue and transaction engine with all-zero stats,
    // so their golden-pinned results cannot have shifted.
    for (const std::string &name :
         {std::string("thermostat"), std::string("static"),
          std::string("lru-age"), std::string("hotness"),
          std::string("oracle")}) {
        SCOPED_TRACE(name);
        const SimResult r = runEngine(name, 3, 1);
        EXPECT_EQ(r.queue.steps, 0u);
        EXPECT_EQ(r.queue.enqueued, 0u);
        EXPECT_EQ(r.queue.issued, 0u);
        EXPECT_EQ(r.queue.occupancyPeak, 0u);
        EXPECT_EQ(r.transactions.begins, 0u);
        EXPECT_EQ(r.transactions.commits, 0u);
        EXPECT_EQ(r.transactions.aborts, 0u);
        EXPECT_GT(r.policy.ticks, 0u);
    }
}

} // namespace
} // namespace thermostat
