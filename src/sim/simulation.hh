/**
 * @file
 * The experiment driver: runs a workload on a Machine with the
 * Thermostat engine attached, epoch by epoch, and produces the
 * measurements the paper's tables and figures report.
 *
 * Scaled-stream methodology: each 1s epoch simulates
 * `samplesPerEpoch` concrete references, each representing
 * `memRefRate / samplesPerEpoch` real accesses; latencies and event
 * counts scale linearly.  Both the actual and the all-DRAM baseline
 * latency of every access are computed in the same pass, so one run
 * yields throughput degradation directly.
 */

#ifndef THERMOSTAT_SIM_SIMULATION_HH
#define THERMOSTAT_SIM_SIMULATION_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/stats.hh"
#include "migrate/migration_queue.hh"
#include "migrate/transaction_engine.hh"
#include "policy/thermostat_policy.hh"
#include "obs/access_sampler.hh"
#include "obs/event_trace.hh"
#include "obs/flight_recorder.hh"
#include "obs/lifecycle_audit.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "sim/machine.hh"
#include "sys/khugepaged.hh"
#include "sys/kstaled.hh"
#include "sys/mem_cgroup.hh"
#include "sys/migration.hh"
#include "workload/workload.hh"

namespace thermostat
{

/** Experiment configuration. */
struct SimConfig
{
    std::uint64_t seed = 42;
    Ns epoch = kNsPerSec;
    unsigned samplesPerEpoch = 40000;

    /**
     * Worker threads for the epoch pipeline: each epoch's timing and
     * profiling streams are drawn serially in chunks, each chunk is
     * bucketed into the kMachineLanes address lanes, and the lanes
     * execute on this many pool workers.  0 = auto
     * (min(kMachineLanes, ThreadPool::defaultJobs())); 1 = the lanes
     * run inline on the calling thread.  The lane split is fixed, so
     * every value runs the same code on the same lanes and produces
     * byte-identical results.
     */
    unsigned shards = 0;

    /** 0 = the workload's natural duration. */
    Ns duration = 0;

    /**
     * Warmup time before measurement starts.  Thermostat runs and
     * the workload executes, but nothing is recorded; matches the
     * paper's methodology of measuring after benchmark warmup
     * (e.g. 600s for MySQL-TPCC, Sec 4.3).
     */
    Ns warmup = 0;

    /**
     * Weight (real accesses per sample) of the profiling stream
     * that drives poisoned-page access counting and Accessed bits.
     * Finer than the timing stream so that low-rate pages are
     * measurable: the paper's mechanism observes every TLB miss,
     * which a coarse-grained timing stream cannot represent.
     */
    Count profileWeight = 4;

    MachineConfig machine;
    ThermostatParams params;

    /**
     * Tiering engine to drive (a PolicyFactory name).  The default
     * runs the paper's engine; the comparison engines take their
     * knobs from policyParams.
     */
    std::string policy = "thermostat";
    PolicyParams policyParams;

    /** Master enable for the selected policy (false = baseline). */
    bool thermostatEnabled = true;

    /**
     * Run the khugepaged model alongside Thermostat, recovering
     * huge pages from ranges left split (off by default: the engine
     * collapses its own samples, so the daemon matters mainly for
     * THP-off phases and the spreading extension).
     */
    bool khugepagedEnabled = false;

    /**
     * PEBS counting parameters (machine.countingMode == Pebs): one
     * record per `pebsPeriod` monitored accesses, capped at
     * `pebsMaxRecordsPerSec` (the Linux default of 1000Hz is the
     * bottleneck the paper calls out in Sec 6.1.2).
     */
    Count pebsPeriod = 16;
    double pebsMaxRecordsPerSec = 1000.0;

    /** Footprint/timeseries sampling interval. */
    Ns reportInterval = 5 * kNsPerSec;

    /** Event-trace ring capacity (events kept for export). */
    std::size_t traceCapacity = 1u << 16;

    /**
     * Which event categories the ring records (kEv* bits).  The
     * lifecycle auditor always sees the full stream regardless.
     */
    std::uint32_t traceMask = kEvAll;

    /**
     * Sampled access telemetry (obs/access_sampler.hh).  On by
     * default: the sampler draws from its own seeded stream and
     * only observes, so golden runs stay byte-identical.  Set
     * sampler.period = 0 to remove the Machine tap entirely.
     */
    AccessSamplerConfig sampler;

    /**
     * Route sampled accesses into the active policy's
     * access-feedback hook (scaled by the sampling period).  Off by
     * default: it changes what feedback-driven policies see, so
     * enabling it is an explicit experiment (ROADMAP item 5).
     */
    bool samplerFeedback = false;

    /** Flight-recorder ring capacity in epochs. */
    std::size_t flightCapacity = 1u << 12;

    /** Host-time phase profiler (obs/profiler.hh). */
    bool profilerEnabled = true;
};

/** One per-report-interval metric snapshot. */
struct MetricSnapshot
{
    Ns time = 0;
    std::vector<MetricSample> values;
};

/** Everything a run produces. */
struct SimResult
{
    std::string workload;
    Ns duration = 0;

    /** Overall throughput degradation: actual/baseline - 1. */
    double slowdown = 0.0;

    /** Absolute modeled execution time (for cross-run comparisons,
     *  e.g. Table 1's THP on/off throughput gain). */
    double actualSeconds = 0.0;
    double baselineSeconds = 0.0;

    /** Cold bytes / RSS, averaged over report points & at the end. */
    double avgColdFraction = 0.0;
    double finalColdFraction = 0.0;

    std::uint64_t finalRssBytes = 0;
    std::uint64_t finalFileBytes = 0;

    /** Footprint breakdown over time (bytes). */
    TimeSeries hot2M{"hot_2MB"};
    TimeSeries hot4K{"hot_4KB"};
    TimeSeries cold2M{"cold_2MB"};
    TimeSeries cold4K{"cold_4KB"};

    /** Engine-measured slow-memory access rate (Fig 3). */
    TimeSeries engineSlowRate{"engine_slow_rate"};

    /** Device-level slow-tier access rate per epoch. */
    TimeSeries deviceSlowRate{"device_slow_rate"};

    /** Average migration bandwidth over the run (bytes/sec). */
    double demotionBytesPerSec = 0.0;
    double promotionBytesPerSec = 0.0;

    /** Engine/monitoring CPU overhead relative to baseline time. */
    double monitorOverheadFraction = 0.0;

    /** Lifecycle-audit verdict (0 = event stream consistent). */
    Count auditViolations = 0;

    MigrationStats migration;

    /** Migration-queue counters (all zero unless an engine opted
     *  into queued migration: nomad, remap). */
    MigrationQueueStats queue;

    /** Transactional-migration counters (nomad only). */
    TransactionStats transactions;

    /** Which policy produced this run and its generic counters. */
    std::string policyName;
    PolicyStats policy;

    /** Thermostat-engine counters (zeroed under other policies). */
    EngineStats engine;
    BadgerTrapStats trap;
    MachineStats machineStats;
    TlbStats l1Tlb;
    TlbStats l2Tlb;
    LlcStats llc;
    WalkerStats walker;
};

/**
 * One experiment: workload + machine + Thermostat.
 */
class Simulation
{
  public:
    /** Called at each epoch boundary (after the engine tick). */
    using EpochHook = std::function<void(Simulation &, Ns)>;

    /**
     * @param shared_pool Optional externally owned worker pool for
     *     the sharded epoch pipeline; null (the default) makes the
     *     simulation own a pool sized to the resolved shard count.
     *     The datacenter host passes one pool shared by all tenant
     *     simulations so N tenants do not spawn N * shards threads.
     *     Ignored when the resolved shard count is 1.  Lane
     *     execution is lane-partitioned, so results are identical
     *     whichever pool runs them.
     */
    Simulation(std::unique_ptr<Workload> workload,
               const SimConfig &config,
               ThreadPool *shared_pool = nullptr);

    /** Run to completion and collect results. */
    SimResult run();

    /**
     * What one stepped epoch produced (the same quantities a flight
     * row records, exposed so an external driver -- the datacenter
     * host -- can do per-tenant SLO accounting without reparsing
     * the flight ring).
     */
    struct EpochReport
    {
        bool measured = false; //!< false while inside warmup
        Ns time = 0;       //!< epoch end, measurement timeline
        double actualNs = 0.0;   //!< work + actual memory + overhead
        double baselineNs = 0.0; //!< work + baseline memory
        double slowdown = 0.0;   //!< actualNs / baselineNs - 1
    };

    /**
     * Stepwise execution: run() is exactly
     *
     *     startRun();
     *     while (!runDone()) stepEpoch();
     *     return finishRun();
     *
     * so an external driver interleaving epochs of several
     * simulations (the datacenter host round-robin) reproduces a
     * standalone run byte-for-byte per tenant.
     */
    void startRun();

    /** True once the simulated clock has covered warmup+duration. */
    bool runDone() const;

    /** Execute the next epoch; requires startRun() and !runDone(). */
    EpochReport stepEpoch();

    /** Finalize and return the run's results. */
    SimResult finishRun();

    /**
     * The epoch pipeline's worker count this config resolves to
     * (the knob, else auto; never more than kMachineLanes).  Exposed
     * so an external pool owner can size one shared pool before
     * constructing tenant simulations.
     */
    static unsigned resolveShards(const SimConfig &config);

    /** Install a per-epoch callback (custom policies in benches). */
    void setEpochHook(EpochHook hook) { hook_ = std::move(hook); }

    Machine &machine() { return machine_; }
    Workload &workload() { return *workload_; }
    MetricRegistry &metrics() { return metrics_; }
    const MetricRegistry &metrics() const { return metrics_; }
    EventTracer &tracer() { return tracer_; }
    const LifecycleAuditor &auditor() const { return auditor_; }

    /** Null when config.sampler.period == 0. */
    AccessSampler *accessSampler() { return sampler_.get(); }
    const AccessSampler *accessSampler() const
    {
        return sampler_.get();
    }

    /** Per-epoch time-series ring (always recording). */
    EpochFlightRecorder &flightRecorder() { return flight_; }
    const EpochFlightRecorder &flightRecorder() const
    {
        return flight_;
    }

    /** Host-time phase profile of this run. */
    Profiler &profiler() { return profiler_; }
    const Profiler &profiler() const { return profiler_; }

    /** Per-report-interval metric snapshots captured by run(). */
    const std::vector<MetricSnapshot> &snapshots() const
    {
        return snapshots_;
    }

    /**
     * Full metrics dump: {"final": <hierarchical metrics>,
     * "snapshots": [{"time_sec": t, "metrics": {flat}}]}.
     */
    std::string metricsJson() const;

    Kstaled &kstaled() { return kstaled_; }
    Khugepaged &khugepaged() { return khugepaged_; }
    PageMigrator &migrator() { return migrator_; }
    MemCgroup &cgroup() { return cgroup_; }
    MigrationQueue &migrationQueue() { return queue_; }
    TransactionEngine &transactionEngine() { return transactions_; }

    /** The active tiering policy. */
    TieringPolicy &policy() { return *policy_; }

    /**
     * policy() as the paper's engine, for tests; asserts when the
     * run uses a different policy.
     */
    ThermostatPolicy &engine();

    const SimConfig &config() const { return config_; }

    /** Effective worker count after auto resolution. */
    unsigned shards() const { return shards_; }

  private:
    void recordFootprint(SimResult &result, Ns now);

    /**
     * One epoch's two reference streams through the chunk schedule:
     * the timing stream, which adds its memory time to @p
     * epoch_actual and @p epoch_baseline, then the profiling stream.
     */
    void runEpochStreams(Ns &epoch_actual, Ns &epoch_baseline);

    /** Cumulative counters latched to compute per-epoch deltas. */
    struct EpochBase
    {
        std::uint64_t bytesDemoted = 0;
        std::uint64_t bytesPromoted = 0;
        Count demotionsOrdered = 0;
        Count promotionsOrdered = 0;
        Count slowWear = 0;
        Count weightedFaults = 0;
        std::uint64_t sampled = 0;
        std::uint64_t sampledSlow = 0;
        std::uint64_t queueIssuedBytes = 0;
    };

    /** Snapshot the cumulative counters feeding the flight rows. */
    EpochBase epochBase();

    /** Append one flight-recorder row for the epoch ending @p at. */
    void recordEpoch(Ns at, const EpochBase &base, Ns actual,
                     Ns baseline, Ns work, Ns overhead,
                     Count weight, Count slow_accesses);

    /**
     * Run-in-progress state: the locals of the old monolithic run()
     * loop, hoisted so stepEpoch() can be re-entered from outside.
     * Reset by startRun(), consumed by finishRun().
     */
    struct RunState
    {
        SimResult result;
        Ns duration = 0;          //!< resolved (config or natural)
        double epochSec = 0.0;
        Count weight = 1;         //!< real accesses per timing sample
        std::uint64_t profileSamples = 0;
        Count pebsBudget = 0;
        Ns workPerEpoch = 0;      //!< baseline CPU work per epoch
        double actualTotal = 0.0;
        double baselineTotal = 0.0;
        double coldFracSum = 0.0;
        std::uint64_t coldFracCount = 0;
        Ns nextReport = 0;
        Ns overheadTotal = 0;
        Ns now = 0;               //!< next epoch's start time
        bool active = false;      //!< between startRun and finishRun
    };

    SimConfig config_;                      // shard: read-only
    std::unique_ptr<Workload> workload_;    // shard: serial-only
    Machine machine_;    // shard: lane-local (internally sliced)
    Kstaled kstaled_;    // shard: serial-only
    Khugepaged khugepaged_; // shard: serial-only
    PageMigrator migrator_; // shard: serial-only
    MemCgroup cgroup_;      // shard: serial-only
    TransactionEngine transactions_; // shard: serial-only
    MigrationQueue queue_;           // shard: serial-only

    /**
     * The selected engine.  Its access feedback runs in the lanes,
     * each call on the lane owning the page (onProfiledAccess).
     */
    // shard: serial-only (feedback windows split per lane inside)
    std::unique_ptr<TieringPolicy> policy_;

    Rng rng_;        // shard: serial-only (drawn before fan-out)
    Rng profileRng_; // shard: serial-only (drawn before fan-out)
    Count pebsMonitoredHits_ = 0; // shard: serial-only (PEBS replay)
    EpochHook hook_;              // shard: serial-only

    unsigned shards_ = 1;    //!< resolved // shard: read-only
    /** Owned only when no shared pool was injected. */
    std::unique_ptr<ThreadPool> ownedPool_; // shard: read-only
    /** Effective pool (owned or shared); null = lanes run inline. */
    ThreadPool *pool_ = nullptr; // shard: read-only handle

    RunState run_; // shard: serial-only

    MetricRegistry metrics_;  // shard: serial-only
    EventTracer tracer_;      // shard: serial-only
    LifecycleAuditor auditor_; // shard: serial-only
    std::vector<MetricSnapshot> snapshots_; // shard: serial-only

    std::unique_ptr<AccessSampler> sampler_; // shard: lane-local
    EpochFlightRecorder flight_; // shard: serial-only
    Profiler profiler_;          // shard: serial-only
};

} // namespace thermostat

#endif // THERMOSTAT_SIM_SIMULATION_HH
