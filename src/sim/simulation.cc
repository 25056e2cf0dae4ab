#include "sim/simulation.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "obs/json.hh"
#include "policy/policy_factory.hh"
#include "policy/thermostat_policy.hh"

namespace thermostat
{

/**
 * Resolve the epoch pipeline's worker count: the config knob, else
 * auto.  Never more workers than lanes -- there is nothing for them
 * to do.
 */
unsigned
Simulation::resolveShards(const SimConfig &config)
{
    const unsigned requested =
        config.shards != 0
            ? config.shards
            : std::min(kMachineLanes, ThreadPool::defaultJobs());
    return std::min(std::max(requested, 1u), kMachineLanes);
}

namespace
{

/** References per chunk: bounds the lane buffers, amortizes the
 *  lane fan-out. */
constexpr std::uint64_t kChunkRefs = 65536;

/**
 * What a lane reports about one reference for the draw-order replay:
 * its leaf size, and whether the sampler recorded it (timing) or it
 * hit a poisoned page (profiling).
 */
struct RefOutcome
{
    bool huge = false;
    bool flagged = false;
};

/** One lane's bucket of a chunk. */
struct LaneBucket
{
    std::vector<MemRef> refs;         //!< in draw order
    std::vector<RefOutcome> outcomes; //!< one per ref, set by the lane
};

/** One drawn chunk: its references bucketed by lane. */
struct Chunk
{
    std::array<LaneBucket, kMachineLanes> lanes;
    std::vector<std::uint8_t> drawLanes; //!< lane of each draw
};

/** Order-sensitive work on one reference, called in draw order. */
using DrawReplay =
    std::function<void(const MemRef &, const RefOutcome &)>;

/**
 * The epoch pipeline every reference stream runs through.  Per
 * fixed-size chunk: draw the references serially from @p rng,
 * bucket them by lane, run every lane's bucket through
 * execute(ref) -> RefOutcome (on @p pool when there is one, else
 * inline), then call @p replay, when set, on each reference in draw
 * order.
 *
 * Draw-ahead: while the pool runs chunk c's lanes, the calling
 * thread draws chunk c+1 into the other buffer.  The draw reads only
 * workload state -- region sizes and pattern cursors, which
 * Workload::advance() writes between epochs, and slot memos, which
 * only the drawing thread touches -- and neither the lanes nor the
 * replay write any of it, so drawing early consumes @p rng exactly
 * as a reference-at-a-time loop would.  Without a pool the same
 * sequence runs with the lanes inline.  @p profiler times the draw,
 * the lanes still running once the draw is done, and the replay as
 * children of the enclosing stream scope.
 */
template <typename Execute>
void
runStream(Workload &workload, Rng &rng, ThreadPool *pool,
          Profiler *profiler, std::uint64_t count,
          const Execute &execute, const DrawReplay &replay)
{
    std::array<Chunk, 2> chunks;
    const auto draw = [&](Chunk &chunk, std::uint64_t refs) {
        PhaseScope scope(profiler, "draw");
        for (LaneBucket &bucket : chunk.lanes) {
            bucket.refs.clear();
        }
        chunk.drawLanes.clear();
        for (std::uint64_t i = 0; i < refs; ++i) {
            const MemRef ref = workload.sample(rng);
            const unsigned lane = laneOf(ref.addr);
            chunk.lanes[lane].refs.push_back(ref);
            chunk.drawLanes.push_back(static_cast<std::uint8_t>(lane));
        }
    };
    const auto run_lane = [&execute](LaneBucket &bucket) {
        bucket.outcomes.resize(bucket.refs.size());
        for (std::size_t k = 0; k < bucket.refs.size(); ++k) {
            bucket.outcomes[k] = execute(bucket.refs[k]);
        }
    };
    draw(chunks[0], std::min(kChunkRefs, count));
    for (std::uint64_t first = 0, c = 0; first < count;
         first += kChunkRefs, ++c) {
        Chunk &chunk = chunks[c % 2];
        try {
            if (pool != nullptr) {
                for (LaneBucket &bucket : chunk.lanes) {
                    pool->submit(
                        [&run_lane, &bucket] { run_lane(bucket); });
                }
            }
            const std::uint64_t next = first + kChunkRefs;
            if (next < count) {
                draw(chunks[(c + 1) % 2],
                     std::min(kChunkRefs, count - next));
            }
            PhaseScope scope(profiler, "lanes");
            if (pool != nullptr) {
                pool->wait();
            } else {
                for (LaneBucket &bucket : chunk.lanes) {
                    run_lane(bucket);
                }
            }
        } catch (...) {
            // No lane job may outlive the chunk it reads.
            if (pool != nullptr) {
                pool->wait();
            }
            throw;
        }
        if (!replay) {
            continue;
        }
        // Replay in draw order: one cursor per lane bucket, advanced
        // by following the recorded lane of each draw.
        PhaseScope scope(profiler, "replay");
        std::array<std::size_t, kMachineLanes> next{};
        for (const std::uint8_t lane : chunk.drawLanes) {
            const std::size_t k = next[lane]++;
            replay(chunk.lanes[lane].refs[k],
                   chunk.lanes[lane].outcomes[k]);
        }
    }
}

/** Flight-recorder schema: one row per measured epoch. */
std::vector<std::string>
flightColumns()
{
    return {"slowdown",      "actual_ns",  "baseline_ns",
            "overhead_ns",   "slow_accesses", "demote_bytes",
            "promote_bytes", "demotions",  "promotions",
            "migration_retries", "copy_aborts", "wear_writes",
            "trap_faults",   "cold_bytes", "rss_bytes",
            "sampled",       "sampled_slow",
            "queue_depth",   "queue_issued_bytes"};
}

} // namespace

// shard: serial-only -- construction precedes any lane fan-out.
Simulation::Simulation(std::unique_ptr<Workload> workload,
                       const SimConfig &config,
                       ThreadPool *shared_pool)
    : config_(config),
      workload_(std::move(workload)),
      faults_(config.faultPlan.enabled()
                  ? std::make_unique<FaultInjector>(
                        config.faultPlan,
                        // rng: fault-injector stream
                        config.seed ^ 0xfa017ab1eULL)
                  : nullptr),
      machine_(config.machine),
      kstaled_(machine_.space(), machine_.tlb()),
      khugepaged_(machine_.space(), machine_.tlb()),
      migrator_(machine_.space(), machine_.tlb(), &machine_.llc()),
      cgroup_("workload", config.params),
      transactions_(machine_.space(), migrator_),
      queue_(migrator_, machine_.trap(), transactions_,
             {config.policyParams.queueCapacity,
              config.policyParams.queueServiceBytes,
              config.policyParams.queueBusyThreshold}),
      rng_(config.seed),
      profileRng_(config.seed ^ 0x5aadddULL), // rng: profiler
      shards_(resolveShards(config)),
      ownedPool_(shards_ > 1 && shared_pool == nullptr
                     ? std::make_unique<ThreadPool>(shards_)
                     : nullptr),
      pool_(shards_ > 1
                ? (shared_pool != nullptr ? shared_pool
                                          : ownedPool_.get())
                : nullptr),
      tracer_(config.traceCapacity),
      flight_(flightColumns(), config.flightCapacity),
      profiler_(config.profilerEnabled)
{
    TSTAT_ASSERT(workload_ != nullptr, "Simulation without workload");
    policy_ = PolicyFactory::make(
        config.policy,
        PolicyContext{cgroup_, machine_.space(), machine_.trap(),
                      kstaled_, migrator_, config.policyParams,
                      workload_.get(), config.seed, &queue_,
                      &transactions_});
    if (policy_ == nullptr) {
        TSTAT_FATAL("unknown tiering policy '%s'",
                    config.policy.c_str());
    }
    thermostat_ = dynamic_cast<ThermostatPolicy *>(policy_.get());
    policy_->setMarkingQuantum(
        static_cast<double>(config.profileWeight));
    workload_->setup(machine_.space());

    // Observability: the auditor sees the full event stream (the
    // ring mask only filters what is kept for export).
    tracer_.setMask(config.traceMask);
    tracer_.setSink(
        [this](const TraceEvent &ev) { auditor_.onEvent(ev); });
    policy_->setTracer(&tracer_);
    migrator_.setTracer(&tracer_);
    queue_.setTracer(&tracer_);
    transactions_.setTracer(&tracer_);
    machine_.trap().setTracer(&tracer_);
    khugepaged_.setTracer(&tracer_);
    khugepaged_.setSkipFilter([this](Addr range) {
        return policy_->isProfilingRange(range);
    });

    machine_.registerMetrics(metrics_, "machine");
    policy_->registerMetrics(metrics_);
    migrator_.registerMetrics(metrics_, "migrator");
    queue_.registerMetrics(metrics_, "queue");
    transactions_.registerMetrics(metrics_, "transactions");
    kstaled_.registerMetrics(metrics_, "kstaled");
    khugepaged_.registerMetrics(metrics_, "khugepaged");
    tracer_.registerMetrics(metrics_);
    flight_.registerMetrics(metrics_);

    // Sampled telemetry: the tap observes the timing stream from its
    // own seeded RNG stream, so attaching it cannot change results.
    if (config_.sampler.period != 0) {
        sampler_ = std::make_unique<AccessSampler>(config_.sampler,
                                                   config_.seed);
        machine_.setAccessSampler(sampler_.get());
        sampler_->registerMetrics(metrics_, "sampler");
    }
    migrator_.setProfiler(&profiler_);
    kstaled_.setProfiler(&profiler_);
    khugepaged_.setProfiler(&profiler_);

    // Fault injection: attached only when a plan is configured, so
    // fault-free runs execute exactly the pre-fault code paths.
    if (faults_ != nullptr) {
        machine_.memory().setFaultInjector(faults_.get());
        machine_.memory().setTracer(&tracer_);
        migrator_.setFaultInjector(faults_.get());
        transactions_.setFaultInjector(faults_.get());
        faults_->registerMetrics(metrics_, "faults");
    }
}

ThermostatEngine &
Simulation::engine()
{
    TSTAT_ASSERT(thermostat_ != nullptr,
                 "engine() requires the thermostat policy");
    return thermostat_->engine();
}

// shard: merge-barrier -- runs between epochs, after the lane
// fan-out has joined and syncDeviceState() has drained the lanes.
Simulation::EpochBase
Simulation::epochBase()
{
    EpochBase base;
    const MigrationStats &mig = migrator_.stats();
    base.bytesDemoted = mig.bytesDemoted;
    base.bytesPromoted = mig.bytesPromoted;
    base.demotionsOrdered = mig.hugeDemotions + mig.baseDemotions;
    base.promotionsOrdered = mig.hugePromotions + mig.basePromotions;
    base.retries = mig.retries;
    base.copyAborts = mig.copyAborts;
    base.slowWear = machine_.memory().slow().totalWear();
    base.weightedFaults = machine_.trap().stats().weightedFaults;
    if (sampler_ != nullptr) {
        base.sampled = sampler_->sampled();
        base.sampledSlow = sampler_->sampledSlow();
    }
    base.queueIssuedBytes = queue_.stats().bytesIssued;
    return base;
}

// shard: merge-barrier -- same contract as epochBase().
void
Simulation::recordEpoch(Ns at, const EpochBase &base, Ns actual,
                        Ns baseline, Ns work, Ns overhead,
                        Count weight, Count slow_accesses)
{
    const EpochBase now = epochBase();
    const double w = static_cast<double>(weight);
    const double actual_ns = static_cast<double>(work) +
                             static_cast<double>(actual) * w +
                             static_cast<double>(overhead);
    const double baseline_ns = static_cast<double>(work) +
                               static_cast<double>(baseline) * w;
    const double slowdown =
        baseline_ns > 0.0 ? actual_ns / baseline_ns - 1.0 : 0.0;
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(a - b);
    };
    flight_.append(
        at,
        {slowdown, actual_ns, baseline_ns,
         static_cast<double>(overhead),
         static_cast<double>(slow_accesses),
         delta(now.bytesDemoted, base.bytesDemoted),
         delta(now.bytesPromoted, base.bytesPromoted),
         delta(now.demotionsOrdered, base.demotionsOrdered),
         delta(now.promotionsOrdered, base.promotionsOrdered),
         delta(now.retries, base.retries),
         delta(now.copyAborts, base.copyAborts),
         delta(now.slowWear, base.slowWear),
         delta(now.weightedFaults, base.weightedFaults),
         static_cast<double>(policy_->coldBytes()),
         static_cast<double>(machine_.space().rssBytes()),
         delta(now.sampled, base.sampled),
         delta(now.sampledSlow, base.sampledSlow),
         static_cast<double>(queue_.occupancy()),
         delta(now.queueIssuedBytes, base.queueIssuedBytes)});
}

// shard: lane-local -- the executor touches only its lane's machine
// state; the sampler-feedback replay runs after the lanes join.
void
Simulation::runTimingStream(Count weight, Ns &epoch_actual,
                            Ns &epoch_baseline)
{
    PhaseScope scope(&profiler_, "timing_stream", &tracer_);
    DrawReplay replay;
    if (config_.samplerFeedback && sampler_ != nullptr &&
        policy_->wantsAccessFeedback()) {
        // Each sample stands for ~period offered accesses: scale the
        // feedback so the policy sees calibrated magnitudes.
        const Count sample_weight = weight * config_.sampler.period;
        replay = [this, sample_weight](const MemRef &ref,
                                       const RefOutcome &out) {
            if (out.flagged) {
                policy_->onProfiledAccess(
                    out.huge ? alignDown2M(ref.addr)
                             : alignDown4K(ref.addr),
                    out.huge, ref.type == AccessType::Write,
                    sample_weight);
            }
        };
    }
    const MachineStats before = machine_.stats();
    runStream(
        *workload_, rng_, pool_, &profiler_, config_.samplesPerEpoch,
        [&](const MemRef &ref) {
            const AccessOutcome out = machine_.access(
                ref.addr, ref.type, weight, ref.burstLines);
            return RefOutcome{out.huge, out.sampled};
        },
        replay);
    // Every access adds latency x weight to its lane's stats, so the
    // deltas divide exactly.
    const MachineStats after = machine_.stats();
    epoch_actual += (after.actualTime - before.actualTime) / weight;
    epoch_baseline += (after.baselineTime - before.baselineTime) / weight;
}

// shard: lane-local -- the executor walks only its lane's pages;
// the feedback/PEBS replay runs after the lanes join.
void
Simulation::runProfileStream(std::uint64_t profile_samples,
                             Count pebs_budget)
{
    PhaseScope scope(&profiler_, "profile_stream", &tracer_);
    const bool pebs =
        config_.machine.countingMode == CountingMode::Pebs;
    const bool feedback = config_.thermostatEnabled &&
                          policy_->wantsAccessFeedback();
    // Grab the component references up front: the Machine accessors
    // that flush deferred device state must not run inside the lane
    // workers.
    PageTable &table = machine_.space().pageTable();
    BadgerTrap &trap = machine_.trap();
    Count pebs_records = 0;
    DrawReplay replay;
    if (pebs || feedback) {
        replay = [&](const MemRef &ref, const RefOutcome &out) {
            const Addr base = out.huge ? alignDown2M(ref.addr)
                                       : alignDown4K(ref.addr);
            if (feedback) {
                policy_->onProfiledAccess(
                    base, out.huge, ref.type == AccessType::Write,
                    config_.profileWeight);
            }
            // PEBS: one record per pebsPeriod monitored accesses,
            // silently dropped beyond the record-rate budget --
            // which is exactly why 1000Hz cannot support 30K
            // accesses/sec of monitoring (Sec 6.1.2).
            if (pebs && out.flagged &&
                ++pebsMonitoredHits_ % config_.pebsPeriod == 0 &&
                pebs_records < pebs_budget) {
                ++pebs_records;
                trap.recordAccess(
                    base, config_.profileWeight * config_.pebsPeriod);
            }
        };
    }
    runStream(
        *workload_, profileRng_, pool_, &profiler_, profile_samples,
        [&](const MemRef &ref) {
            const WalkResult wr = table.walk(ref.addr);
            TSTAT_ASSERT(wr.mapped(), "profile ref unmapped");
            wr.pte->setAccessed();
            if (ref.type == AccessType::Write) {
                wr.pte->setDirty();
            }
            const bool poisoned = wr.pte->poisoned();
            // BadgerTrap counts every poisoned access here; PEBS
            // records are budgeted in draw order by the replay.
            if (poisoned && !pebs) {
                trap.recordAccess(wr.huge ? alignDown2M(ref.addr)
                                          : alignDown4K(ref.addr),
                                  config_.profileWeight);
            }
            return RefOutcome{wr.huge, poisoned};
        },
        replay);
}

// shard: merge-barrier -- same contract as epochBase().
void
Simulation::recordFootprint(SimResult &result, Ns now)
{
    std::uint64_t hot2m = 0;
    std::uint64_t hot4k = 0;
    std::uint64_t cold2m = 0;
    std::uint64_t cold4k = 0;
    TieredMemory &memory = machine_.memory();
    machine_.space().pageTable().forEachLeaf(
        [&](Addr, Pte &pte, bool huge) {
            const bool cold = memory.tierOf(pte.pfn()) == Tier::Slow;
            if (huge) {
                (cold ? cold2m : hot2m) += kPageSize2M;
            } else {
                (cold ? cold4k : hot4k) += kPageSize4K;
            }
        });
    result.hot2M.append(now, static_cast<double>(hot2m));
    result.hot4K.append(now, static_cast<double>(hot4k));
    result.cold2M.append(now, static_cast<double>(cold2m));
    result.cold4K.append(now, static_cast<double>(cold4k));
}

void
Simulation::startRun()
{
    snapshots_.clear();
    run_ = RunState{};
    run_.result.workload = workload_->name();
    run_.duration = config_.duration != 0
                        ? config_.duration
                        : workload_->naturalDuration();
    run_.result.duration = run_.duration;

    const double rate = workload_->memRefRate();
    run_.epochSec = static_cast<double>(config_.epoch) /
                    static_cast<double>(kNsPerSec);
    run_.weight = static_cast<Count>(
        rate * run_.epochSec /
            static_cast<double>(config_.samplesPerEpoch) +
        0.5);
    TSTAT_ASSERT(run_.weight >= 1,
                 "sample weight underflow; lower "
                 "samplesPerEpoch or raise access rate");
    run_.profileSamples = static_cast<std::uint64_t>(
        rate * run_.epochSec /
            static_cast<double>(config_.profileWeight) +
        0.5);
    run_.pebsBudget = static_cast<Count>(
        config_.pebsMaxRecordsPerSec * run_.epochSec);

    // CPU (non-memory) work per epoch on the baseline machine.
    const double cpu_frac = workload_->cpuWorkFraction();
    run_.workPerEpoch = static_cast<Ns>(
        cpu_frac * static_cast<double>(config_.epoch));

    run_.active = true;
}

bool
Simulation::runDone() const
{
    return run_.now >= config_.warmup + run_.duration;
}

Simulation::EpochReport
Simulation::stepEpoch()
{
    TSTAT_ASSERT(run_.active, "stepEpoch outside startRun/finishRun");
    TSTAT_ASSERT(!runDone(), "stepEpoch past the run's end");
    EpochReport report;
    SimResult &result = run_.result;
    const Ns warmup = config_.warmup;
    const Ns now = run_.now;

    PhaseScope epoch_scope(&profiler_, "epoch");
    const bool recording = now >= warmup;
    const Ns rec_time = recording ? now - warmup : 0;
    const EpochBase epoch_base = epochBase();
    tracer_.setSimTime(now);
    if (faults_ != nullptr) {
        // Latch the slow tier's degradation state for this
        // epoch and fire any pending wear retirements (the
        // engine tick below evacuates retired blocks).
        machine_.memory().advanceFaultState(now);
    }
    {
        PhaseScope scope(&profiler_, "workload_advance", &tracer_);
        workload_->advance(now, machine_.space());
    }
    Ns queue_cost = 0;
    if (config_.thermostatEnabled) {
        {
            PhaseScope scope(&profiler_, "policy_tick", &tracer_);
            policy_->tick(now);
        }
        // Service the bounded migration queue after the decision
        // round so this epoch's orders contend for this epoch's
        // service budget.  Pass-through engines never activate it.
        if (queue_.active()) {
            PhaseScope scope(&profiler_, "migrate_queue", &tracer_);
            queue_cost = queue_.step(now);
            if (transactions_.active()) {
                transactions_.verifyLedger();
            }
        }
    }
    if (config_.khugepagedEnabled) {
        PhaseScope scope(&profiler_, "khugepaged_tick", &tracer_);
        khugepaged_.tick(now);
    }
    if (hook_) {
        hook_(*this, now);
    }
    const Ns overhead = policy_->takeOverhead() + queue_cost;
    if (recording) {
        run_.overheadTotal += overhead;
    }

    Ns epoch_actual = 0;
    Ns epoch_baseline = 0;
    runTimingStream(run_.weight, epoch_actual, epoch_baseline);
    // Profiling stream: fine-grained accesses that maintain
    // Accessed bits and poisoned-page counters without touching
    // the timing model.
    runProfileStream(run_.profileSamples, run_.pebsBudget);

    // Flush the lanes' deferred device accounting before
    // anything below (flight rows, fault advancement, the next
    // policy tick) reads the device model.
    machine_.syncDeviceState();
    const Count slow_accesses = machine_.takeSlowAccessCount();
    run_.now = now + config_.epoch;
    if (!recording) {
        return report;
    }
    recordEpoch(rec_time + config_.epoch, epoch_base,
                epoch_actual, epoch_baseline, run_.workPerEpoch,
                overhead, run_.weight, slow_accesses);
    const double w = static_cast<double>(run_.weight);
    const double actual_mem =
        static_cast<double>(epoch_actual) * w;
    const double baseline_mem =
        static_cast<double>(epoch_baseline) * w;
    const double work = static_cast<double>(run_.workPerEpoch);
    const double epoch_actual_ns =
        work + actual_mem + static_cast<double>(overhead);
    const double epoch_baseline_ns = work + baseline_mem;
    run_.actualTotal += epoch_actual_ns;
    run_.baselineTotal += epoch_baseline_ns;
    report.measured = true;
    report.time = rec_time + config_.epoch;
    report.actualNs = epoch_actual_ns;
    report.baselineNs = epoch_baseline_ns;
    report.slowdown = epoch_baseline_ns > 0.0
                          ? epoch_actual_ns / epoch_baseline_ns - 1.0
                          : 0.0;

    // Device-level slow access rate for this epoch.
    result.deviceSlowRate.append(
        rec_time + config_.epoch,
        static_cast<double>(slow_accesses) / run_.epochSec);

    if (rec_time >= run_.nextReport) {
        recordFootprint(result, rec_time);
        snapshots_.push_back({rec_time, metrics_.snapshot()});
        const std::uint64_t rss = machine_.space().rssBytes();
        if (rss > 0) {
            run_.coldFracSum +=
                static_cast<double>(policy_->coldBytes()) /
                static_cast<double>(rss);
            ++run_.coldFracCount;
        }
        run_.nextReport += config_.reportInterval;
    }
    return report;
}

// shard: serial-only -- the run has ended; no lanes are in flight.
SimResult
Simulation::finishRun()
{
    TSTAT_ASSERT(run_.active, "finishRun without startRun");
    SimResult result = std::move(run_.result);
    const Ns duration = run_.duration;
    recordFootprint(result, duration);

    result.slowdown = run_.baselineTotal > 0.0
                          ? run_.actualTotal / run_.baselineTotal - 1.0
                          : 0.0;
    result.actualSeconds = run_.actualTotal / kNsPerSec;
    result.baselineSeconds = run_.baselineTotal / kNsPerSec;
    result.finalRssBytes = machine_.space().rssBytes();
    result.finalFileBytes = machine_.space().fileBackedBytes();
    result.finalColdFraction =
        result.finalRssBytes > 0
            ? static_cast<double>(policy_->coldBytes()) /
                  static_cast<double>(result.finalRssBytes)
            : 0.0;
    result.avgColdFraction =
        run_.coldFracCount > 0
            ? run_.coldFracSum /
                  static_cast<double>(run_.coldFracCount)
            : 0.0;
    // Shift the engine's series into measurement time.
    const Ns warmup = config_.warmup;
    if (const TimeSeries *series = policy_->slowRateSeries()) {
        for (const auto &sample : series->samples()) {
            if (sample.time >= warmup) {
                result.engineSlowRate.append(sample.time - warmup,
                                             sample.value);
            }
        }
    }

    const double dur_sec = static_cast<double>(duration) /
                           static_cast<double>(kNsPerSec);
    result.demotionBytesPerSec =
        static_cast<double>(migrator_.stats().bytesDemoted) / dur_sec;
    result.promotionBytesPerSec =
        static_cast<double>(migrator_.stats().bytesPromoted) / dur_sec;
    result.monitorOverheadFraction =
        run_.baselineTotal > 0.0
            ? static_cast<double>(run_.overheadTotal) /
                  run_.baselineTotal
            : 0.0;

    // Lifecycle audit: replays of the event stream must agree with
    // the migrator's and the slow tier's own accounting.
    auditor_.finish(migrator_.stats(),
                    machine_.memory().slow().stats());
    result.auditViolations = auditor_.violations();
    if (!auditor_.ok()) {
        for (const std::string &msg : auditor_.messages()) {
            TSTAT_WARN("lifecycle audit: %s", msg.c_str());
        }
    }

    result.migration = migrator_.stats();
    result.queue = queue_.stats();
    result.transactions = transactions_.stats();
    result.policyName = policy_->name();
    result.policy = policy_->stats();
    if (thermostat_ != nullptr) {
        result.engine = thermostat_->engine().stats();
    }
    result.trap = machine_.trap().stats();
    result.machineStats = machine_.stats();
    result.l1Tlb = machine_.tlb().l1Stats();
    result.l2Tlb = machine_.tlb().l2Stats();
    result.llc = machine_.llc().stats();
    result.walker = machine_.walkerStats();
    run_.active = false;
    return result;
}

SimResult
Simulation::run()
{
    startRun();
    while (!runDone()) {
        stepEpoch();
    }
    return finishRun();
}

std::string
Simulation::metricsJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("final");
    w.raw(metrics_.dumpJson());
    w.key("snapshots");
    w.beginArray();
    for (const MetricSnapshot &snap : snapshots_) {
        w.beginObject();
        w.key("time_sec");
        w.value(static_cast<double>(snap.time) /
                static_cast<double>(kNsPerSec));
        w.key("metrics");
        w.beginObject();
        for (const MetricSample &sample : snap.values) {
            w.key(sample.name);
            w.value(sample.value);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace thermostat
