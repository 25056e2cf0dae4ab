/**
 * @file
 * Bounded, epoch-stepped migration queue (ROADMAP item 3).
 *
 * The ChampSim-Ramulator / CAMEO line of work (SNIPPETS 1-2) models
 * hardware remapping through a bounded RemappingRequest queue with
 * congestion feedback; this is the software analogue for the
 * simulator's policy engines.  Instead of a policy calling the
 * PageMigrator synchronously from its decision round, an opted-in
 * engine *enqueues* requests and the simulation services the queue
 * once per epoch, bounded by a per-epoch service-byte budget drawn
 * from the migrator's copy-bandwidth model.  The queue therefore
 * turns migration capacity into a first-class modeled resource:
 *
 *   enqueue  policy decision round; rejected outright when the
 *            bounded queue is full (QueueRejected)
 *   issue    epoch step, strict FIFO, until the service budget is
 *            spent; transactional requests open a shadow-copy
 *            transaction instead of moving immediately
 *   complete same epoch for plain moves; next epoch for
 *            transactional ones (commit-or-abort after one epoch of
 *            dirty-revalidation exposure)
 *
 * Congestion feeds back two ways: pressure() (occupancy/capacity)
 * is surfaced to policies via TieringPolicy::queuePressure(), and an
 * admission denial from the host arbiter (MigrationAdmission) puts
 * the request back at the head and stops the epoch's issue phase --
 * arbiter backpressure and queue congestion compose instead of
 * racing.
 *
 * The queue is pass-through by construction: engines opt in with
 * activate(); without that the simulation never steps it, no state
 * changes, and the five legacy engines stay byte-identical.
 */

#ifndef THERMOSTAT_MIGRATE_MIGRATION_QUEUE_HH
#define THERMOSTAT_MIGRATE_MIGRATION_QUEUE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.hh"
#include "migrate/transaction_engine.hh"
#include "sys/badger_trap.hh"
#include "sys/migration.hh"

namespace thermostat
{

class EventTracer;
class MetricRegistry;

/** Queue shape and per-epoch service budget. */
struct MigrationQueueConfig
{
    /** Max pending requests; enqueue beyond this is rejected. */
    std::size_t capacity = 64;

    /**
     * Bytes the queue may issue per epoch step -- the slice of the
     * migrator's copy bandwidth granted to queued background moves
     * (0 = unlimited).  The last request that crosses the budget
     * still issues whole; leaves are never split mid-service.
     */
    std::uint64_t serviceBytesPerEpoch = 32 * 1024 * 1024ull;

    /** pressure() at or above this reads as congested. */
    double busyThreshold = 0.8;
};

/** Queue accounting. */
struct MigrationQueueStats
{
    Count steps = 0;          //!< epoch services
    Count enqueued = 0;       //!< requests accepted
    Count rejectedFull = 0;   //!< requests bounced off a full queue
    Count issued = 0;         //!< requests taken off the head
    std::uint64_t bytesIssued = 0; //!< bytes those requests carried
    Count requeuedDenied = 0; //!< admission denials put back at head
    Count leavesMoved = 0;    //!< leaf migrations that landed
    Count leavesFailed = 0;   //!< leaf migrations refused
    Count leavesAborted = 0;  //!< transactional rollbacks
    std::size_t occupancyPeak = 0; //!< max pending depth
    std::size_t inflightPeak = 0;  //!< max open transactions
    Count waitEpochsSum = 0;  //!< epochs issued requests sat pending

    /** Mean epochs a serviced request waited in the queue. */
    double
    waitEpochsMean() const
    {
        return issued == 0 ? 0.0
                           : static_cast<double>(waitEpochsSum) /
                                 static_cast<double>(issued);
    }
};

/**
 * One serviced leaf, reported back to the owning policy so it can
 * maintain its placed set (the queue moves pages; the policy keeps
 * the books).  Multi-page run requests fan out into one completion
 * per leaf, sharing the request's seq.
 */
struct QueueCompletion
{
    std::uint64_t seq = 0; //!< FIFO issue order witness
    Addr base = 0;         //!< leaf base address
    bool huge = false;
    Tier target = Tier::Slow;
    std::uint64_t bytes = 0; //!< leaf size
    bool moved = false;
    bool aborted = false; //!< transactional rollback (dirty, or
                          //!< no room for the shadow copy)
};

/**
 * The bounded in-flight migration model.  Owned by the Simulation
 * next to the migrator; shared by whichever engine opted in.
 */
class MigrationQueue
{
  public:
    MigrationQueue(PageMigrator &migrator, BadgerTrap &trap,
                   TransactionEngine &transactions,
                   const MigrationQueueConfig &config = {});

    void setTracer(EventTracer *tracer) { tracer_ = tracer; }

    /** Opt in; the simulation only steps an activated queue. */
    void activate() { active_ = true; }
    bool active() const { return active_; }

    const MigrationQueueConfig &config() const { return config_; }

    /** Pending depth / capacity, the congestion signal. */
    double
    pressure() const
    {
        return config_.capacity == 0
                   ? 0.0
                   : static_cast<double>(pending_.size()) /
                         static_cast<double>(config_.capacity);
    }

    /** Whether pressure() crossed the congestion threshold. */
    bool busy() const { return pressure() >= config_.busyThreshold; }

    std::size_t occupancy() const { return pending_.size(); }
    std::size_t inflight() const { return inflight_.size(); }

    /**
     * Queue one leaf move.  @p transactional requests go through
     * the TransactionEngine (shadow copy now, commit next epoch);
     * @p retain additionally keeps the slow copy as a read replica
     * after a clean promotion commit.  False when the queue is full.
     */
    bool enqueueLeaf(Addr base, bool huge, Tier target,
                     bool transactional = false, bool retain = false);

    /**
     * Queue a contiguous run of @p pages 4KB leaves starting at
     * @p base as a single request -- the remap engine's 64KB
     * granularity: one queue slot, @p pages migrations at service
     * time.  Non-transactional.  False when the queue is full.
     */
    bool enqueueRun(Addr base, unsigned pages, Tier target);

    /**
     * Service the queue for one epoch: commit-or-abort last epoch's
     * transactions, then issue from the head until the service
     * budget is spent.  Returns the CPU/copy cost to charge the
     * epoch.
     */
    Ns step(Ns now);

    /** Serviced leaves since the last call (issue order). */
    std::vector<QueueCompletion> takeCompletions();

    const MigrationQueueStats &stats() const { return stats_; }

    /** Expose the counters under "<prefix>." in @p registry. */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

  private:
    struct Request
    {
        std::uint64_t seq = 0;
        Addr base = 0;
        bool huge = false;
        unsigned pages = 1; //!< >1: contiguous 4KB run
        Tier target = Tier::Slow;
        std::uint64_t bytes = 0;
        bool transactional = false;
        bool retain = false;
        Count waitEpochs = 0;
    };

    bool push(const Request &req);
    Ns serviceLeaf(const Request &req, Addr leaf_base, Ns now);
    Ns commitInflight(Ns now);

    // The queue is stepped once per epoch from the serial section
    // of the epoch loop; lane workers never touch it.
    PageMigrator &migrator_;       // shard: serial-only
    BadgerTrap &trap_;             // shard: serial-only
    TransactionEngine &transactions_; // shard: serial-only
    MigrationQueueConfig config_;  // shard: read-only
    EventTracer *tracer_ = nullptr; // shard: serial-only
    bool active_ = false;          // shard: serial-only
    std::uint64_t nextSeq_ = 0;    // shard: serial-only
    std::deque<Request> pending_;  // shard: serial-only
    // Open transactions, FIFO.
    std::deque<Request> inflight_; // shard: serial-only
    std::vector<QueueCompletion> completions_; // shard: serial-only
    MigrationQueueStats stats_;    // shard: serial-only
};

} // namespace thermostat

#endif // THERMOSTAT_MIGRATE_MIGRATION_QUEUE_HH
