/**
 * @file
 * The pluggable tiering-policy interface.
 *
 * A TieringPolicy owns the *decision* side of two-tiered page
 * management: which pages live in slow memory, when they move, and
 * what monitoring cost that implies.  The mechanism side -- page
 * tables, migration, poisoning, idle scanning -- stays in the
 * shared components the policy receives via PolicyContext, so every
 * engine runs on exactly the same machine model and its results are
 * directly comparable.
 *
 * Engines behind this interface (see policy_factory.hh):
 *
 *   thermostat  the paper's engine (policy/thermostat_policy.hh):
 *               sampled profiling, slowdown-targeted cold-set sizing
 *   static      pin the coldest-by-initial-rate fraction once,
 *               never migrate (the paper's strawman)
 *   lru-age     kstaled idle-age demotion + fault-driven promotion
 *   hotness     access-frequency promotion/demotion in the style of
 *               Nomad's transactional hot-page promotion
 *   oracle      true per-region rates read from the workload: the
 *               upper bound no online policy can beat at region
 *               granularity
 *
 * Emulation-fidelity note: in BadgerTrapEmu mode the slow tier's
 * latency is realized by the poison fault on each TLB miss (see
 * sim/machine.hh), so every policy poisons the pages it places --
 * exactly how the paper measures the naive baseline of Figure 1.
 * Placement order is always migrate-then-poison, matching the
 * lifecycle auditor's rule that whole huge pages are poisoned only
 * while resident in slow memory; movePage() is the one place that
 * sequence lives.
 */

#ifndef THERMOSTAT_POLICY_TIERING_POLICY_HH
#define THERMOSTAT_POLICY_TIERING_POLICY_HH

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/event_trace.hh"
#include "sys/badger_trap.hh"
#include "sys/kstaled.hh"
#include "sys/mem_cgroup.hh"
#include "sys/migration.hh"
#include "vm/address_space.hh"

namespace thermostat
{

class MetricRegistry;
class MigrationQueue;
class TransactionEngine;
class Workload;
struct QueueCompletion;

/**
 * Knobs shared by the non-Thermostat engines.  Thermostat itself is
 * driven by ThermostatParams (the slowdown target is its knob; the
 * cold fraction is an output); the comparison engines invert that:
 * the cold fraction is the knob and the slowdown is the output.
 */
struct PolicyParams
{
    /** Fraction of the resident set to place in slow memory. */
    double coldFraction = 0.5;

    /** Re-evaluation period for the periodic engines. */
    Ns decisionPeriod = 10 * kNsPerSec;

    /** lru-age: consecutive idle scans before a page is demoted. */
    unsigned idleScansToDemote = 3;

    /**
     * hotness: measured accesses/sec above which a placed page is
     * promoted back to fast memory.
     */
    double promoteRateThreshold = 100.0;

    /** hotness: max promotions per decision period. */
    std::size_t promoteBatch = 64;

    /** nomad/remap: bounded migration-queue depth (requests). */
    std::size_t queueCapacity = 64;

    /**
     * nomad/remap: bytes the queue services per epoch (0 =
     * unlimited) -- the slice of migration copy bandwidth granted
     * to queued background moves.
     */
    std::uint64_t queueServiceBytes = 32 * 1024 * 1024ull;

    /**
     * nomad/remap: queue pressure (occupancy/capacity) at which the
     * engines stop enqueuing new work for the period.
     */
    double queueBusyThreshold = 0.8;
};

/** One settable --policy-param key and its one-line meaning. */
struct PolicyParamKey
{
    const char *key;
    const char *help;
};

/** The keys setPolicyParam() accepts, in listing order. */
const std::vector<PolicyParamKey> &policyParamKeys();

/**
 * Apply "key=value" to @p params.  Unknown keys and unparsable
 * values return false with a diagnostic in @p error (the CLI turns
 * that into a listing-style exit-2 rejection).
 */
bool setPolicyParam(PolicyParams &params, const std::string &key,
                    const std::string &value, std::string *error);

/** Generic per-policy counters, registered under policy/<name>. */
struct PolicyStats
{
    Count ticks = 0;            //!< tick() calls
    Count decisionPeriods = 0;  //!< placement rounds executed
    Count demotionsOrdered = 0; //!< pages the policy asked to demote
    Count promotionsOrdered = 0; //!< pages it asked to promote
    Count placementFailures = 0; //!< orders the migrator refused
    Ns overheadTime = 0;        //!< monitoring+migration CPU charged
};

/**
 * Everything a policy may touch.  All references outlive the policy
 * (the Simulation owns both); @p workload may be null when the
 * driver cannot provide one (oracle degrades gracefully).
 */
struct PolicyContext
{
    MemCgroup &cgroup;
    AddressSpace &space;
    BadgerTrap &trap;
    Kstaled &kstaled;
    PageMigrator &migrator;
    PolicyParams params;
    Workload *workload = nullptr;
    std::uint64_t seed = 42;

    /**
     * The bounded migration queue and transactional mover
     * (src/migrate).  Null in contexts that build policies without
     * a simulation (unit fixtures); the queue-riding engines assert
     * their presence, the legacy five never touch them.
     */
    MigrationQueue *queue = nullptr;
    TransactionEngine *transactions = nullptr;

    /**
     * Simulation-fidelity shim: real accesses represented per
     * profiling-stream sample, used by thermostat to de-bias
     * Accessed-bit populations (see debiasAccessedCount()).  1 =
     * exact stream.
     */
    double markingQuantum = 1.0;
};

/**
 * Abstract engine.  The driver calls tick() once per epoch; the
 * policy decides placements/promotions and accounts its own CPU
 * overhead, which the driver charges to the application via
 * takeOverhead().
 */
class TieringPolicy
{
  public:
    explicit TieringPolicy(const PolicyContext &ctx);
    virtual ~TieringPolicy() = default;

    TieringPolicy(const TieringPolicy &) = delete;
    TieringPolicy &operator=(const TieringPolicy &) = delete;

    /** Registered factory name ("thermostat", "static", ...). */
    virtual const std::string &name() const = 0;

    /** Advance to @p now; run any placement round that is due. */
    virtual void tick(Ns now) = 0;

    /**
     * Access-feedback hook: when wantsAccessFeedback() is true the
     * driver forwards every profiling-stream reference (page base,
     * leaf size, kind, represented real accesses), and with sampler
     * feedback every sampled timing-stream reference.  Policies that
     * return false never pay the call.
     *
     * The machine lane that owns @p base (laneOf) makes the call,
     * while the other lanes make theirs: an override may write only
     * state that belongs to that lane (a LaneWindow) and read only
     * state that nothing writes during the epoch's streams.  @p seq
     * is the reference's place in the epoch's draw order (timing
     * stream first); an effect that depends on the order is logged
     * with it and applied by joinAccessFeedback().
     */
    virtual bool wantsAccessFeedback() const { return false; }
    virtual void
    onProfiledAccess(Addr base, bool huge, bool write, Count weight,
                     std::uint64_t seq)
    {
        (void)base;
        (void)huge;
        (void)write;
        (void)weight;
        (void)seq;
    }

    /**
     * Called on the simulation thread once per epoch that fed
     * onProfiledAccess(), after every lane has finished: apply the
     * logged order-sensitive effects in seq order.
     */
    virtual void joinAccessFeedback() {}

    /** Bytes currently placed in slow memory by this policy. */
    std::uint64_t coldBytes() const;

    /**
     * True while the 2MB range at @p base is mid-profiling and must
     * not be collapsed by khugepaged (Thermostat only).
     */
    virtual bool isProfilingRange(Addr base) const
    {
        (void)base;
        return false;
    }

    /**
     * Measured slow-memory access-rate series (Figure 3), when the
     * engine maintains one; null otherwise.
     */
    virtual const TimeSeries *slowRateSeries() const { return nullptr; }

    /** Attach the lifecycle tracer (policy-decision events). */
    void setTracer(EventTracer *tracer) { tracer_ = tracer; }

    /**
     * Monitoring/migration CPU accumulated since the last call; the
     * driver charges it to the application's epoch.
     */
    Ns takeOverhead();

    /**
     * Register the generic PolicyStats counters under
     * "policy/<name>" plus any engine-specific metrics.  Overrides
     * must chain up.  Called exactly once per registry.
     */
    virtual void registerMetrics(MetricRegistry &registry);

    /** Canonical metric prefix for a policy name. */
    static std::string metricPrefix(const std::string &policy_name)
    {
        return "policy/" + policy_name;
    }

    const PolicyStats &stats() const { return stats_; }
    const PolicyParams &params() const { return params_; }

    /** Leaves currently placed in slow memory, by leaf size. */
    const std::unordered_set<Addr> &placedHugePages() const
    {
        return placedHuge_;
    }
    const std::unordered_set<Addr> &placedBasePages() const
    {
        return placedBase_;
    }

  protected:
    /**
     * Demote the leaf at @p base to slow memory and poison it (the
     * emulation vehicle + misclassification counter): a PolicyDemote
     * decision event and demotionsOrdered, then movePage().
     * @return whether the page moved.
     */
    bool placePage(Addr base, bool huge, Ns now);

    /** Promote a placed page back and unpoison it (see placePage). */
    bool promotePage(Addr base, bool huge, Ns now);

    /**
     * The one synchronous move primitive.  Migrates the leaf at
     * @p base to @p to and charges the copy cost; a refusal counts
     * as a placement failure.  Once the page has moved it is
     * poisoned (slow) or unpoisoned (fast) -- migrate-then-poison,
     * the order the lifecycle auditor checks -- and the placed sets
     * follow.  @p chargeTrap also charges the poison/unpoison cost;
     * thermostat passes false because it charges BadgerTrap's whole
     * maintenance time itself.  Emits no decision event.
     * @return whether the page moved.
     */
    bool movePage(Addr base, bool huge, Tier to, Ns now,
                  bool chargeTrap);

    /** Add @p cost to both the pending and the total overhead. */
    void
    chargeOverhead(Ns cost)
    {
        pendingOverhead_ += cost;
        stats_.overheadTime += cost;
    }

    /** Whether @p base is currently placed by this policy. */
    bool isPlaced(Addr base) const
    {
        return placedHuge_.count(base) != 0 ||
               placedBase_.count(base) != 0;
    }

    /** Target placed-bytes budget: coldFraction x current RSS. */
    std::uint64_t placementBudgetBytes() const;

    AddressSpace &space() { return ctxSpace_; }
    BadgerTrap &trap() { return ctxTrap_; }
    Kstaled &kstaled() { return ctxKstaled_; }
    PageMigrator &migrator() { return ctxMigrator_; }
    MemCgroup &cgroup() { return ctxCgroup_; }
    const MemCgroup &cgroup() const { return ctxCgroup_; }
    Workload *workload() { return workload_; }
    EventTracer *tracer() { return tracer_; }
    MigrationQueue *queue() { return queue_; }
    TransactionEngine *transactions() { return transactions_; }

    /**
     * Congestion feedback from the migration queue: pending
     * occupancy / capacity, 0.0 when no queue is attached.  Engines
     * throttle their decision rounds on this.
     */
    double queuePressure() const;

    /**
     * Drain queue completions into the placed sets: demotions that
     * landed become placed, promotions that landed leave the set,
     * refusals count as placement failures.  Also retires the
     * in-flight order tracking below.  Queue-riding engines call
     * this at the top of each decision round.
     */
    void applyQueueCompletions();

    // Queue-order helpers.  Mirror placePage()/promotePage() --
    // stats, decision events, dedup -- but enqueue instead of
    // moving synchronously; the placed sets update when the
    // completion drains.

    /** Queue a demotion order for @p base; false if full/duplicate. */
    bool orderDemotion(Addr base, bool huge, Ns now,
                       bool transactional = false);

    /** Queue a promotion order; @p retain keeps a read replica. */
    bool orderPromotion(Addr base, bool huge, Ns now,
                        bool transactional = false,
                        bool retain = false);

    /** Queue @p pages contiguous 4KB leaves as one run request. */
    bool orderRunDemotion(Addr base, unsigned pages, Ns now);

    /** Whether @p base has an unresolved queued order. */
    bool hasInFlight(Addr base) const
    {
        return inFlight_.contains(base);
    }

    /**
     * Cold bytes already placed plus in-flight demotions minus
     * in-flight promotions: what placedBytes_ becomes once the
     * queue drains, used to respect the budget despite completion
     * lag.
     */
    std::uint64_t orderedColdBytes() const;

    /** Placed sets (leaf granularity, keyed by base address). */
    std::unordered_set<Addr> placedHuge_;
    std::unordered_set<Addr> placedBase_;
    std::uint64_t placedBytes_ = 0;

    PolicyStats stats_;

  private:
    Ns pendingOverhead_ = 0;
    MemCgroup &ctxCgroup_;
    AddressSpace &ctxSpace_;
    BadgerTrap &ctxTrap_;
    Kstaled &ctxKstaled_;
    PageMigrator &ctxMigrator_;
    PolicyParams params_;
    Workload *workload_;
    EventTracer *tracer_ = nullptr;
    MigrationQueue *queue_;
    TransactionEngine *transactions_;

    /** Queued-but-unresolved orders: leaf base -> direction. */
    enum class OrderDir : std::uint8_t
    {
        Demote,
        Promote
    };
    FlatMap<Addr, OrderDir> inFlight_;
    std::uint64_t inFlightDemoteBytes_ = 0;
    std::uint64_t inFlightPromoteBytes_ = 0;
};

} // namespace thermostat

#endif // THERMOSTAT_POLICY_TIERING_POLICY_HH
