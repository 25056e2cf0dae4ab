#include "sim/simulation.hh"

#include <algorithm>
#include <array>
#include <span>

#include "common/logging.hh"
#include "obs/json.hh"
#include "policy/policy_factory.hh"

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

/** References per chunk without a pool: bounds the lane buckets,
 *  amortizes the lane fan-out. */
constexpr std::uint64_t kChunkRefs = 65536;

/** References per chunk with a pool: half as many, so the two token
 *  and three resolved buffers the pipeline rotates take about the
 *  memory of one full-size chunk's, and the pipeline fills sooner. */
constexpr std::uint64_t kPipelineChunkRefs = 32768;

/** References per resolve block: 16 KB of RefDraw tokens, which the
 *  one-shard path resolves while they are still in L1, and 64 pool
 *  jobs per chunk. */
constexpr std::uint64_t kResolveBlock = 1024;

/** Draws a lane scans per pass when it gathers its references. */
constexpr std::uint64_t kGatherBatch = 256;

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

/** Resolved references and the lane of each, in draw order. */
struct ResolvedChunk
{
    std::vector<MemRef> refs;
    std::vector<std::uint8_t> lanes;
    std::uint64_t size = 0; //!< references in use
};

/**
 * One lane's share of a chunk: its outcomes, and without a pool its
 * references (with one, it reads them from the resolved chunk).
 */
struct LaneBucket
{
    std::vector<MemRef> refs;         //!< in draw order
    std::vector<RefOutcome> outcomes; //!< in draw order, set by the lane
};

/** One lane's host time in the current stream, on its own line. */
struct alignas(kCacheLineBytes) LaneBusy
{
    Ns ns = 0;
};

/** Order-sensitive work on one reference, called in draw order. */
using DrawReplay =
    std::function<void(const MemRef &, const RefOutcome &)>;

/**
 * Runs one lane's references of a chunk (see laneRunner): those of
 * the bucket, or, given a resolved chunk, the lane's references in
 * it.
 */
using LaneRunner =
    std::function<void(LaneBucket &, const ResolvedChunk *, unsigned)>;

/**
 * One reference stream of an epoch: the RNG it draws from, how many
 * references, what a lane does with its references, the
 * order-sensitive replay (may be empty) and a hook run once the
 * stream's last lanes have joined and been replayed (may be empty).
 */
struct StreamSpec
{
    const char *phase; //!< profiler and tracer scope of the stream
    Rng &rng;
    std::uint64_t count;
    LaneRunner runLane;
    DrawReplay replay;
    std::function<void()> joined;
};

/**
 * A LaneRunner setting each outcome to @p execute(ref), in draw
 * order.  Given a resolved chunk, the lane picks its references out
 * of it by lane tag, a batch of tags at a time, so the lane job, not
 * a serial pass, buckets the chunk.
 */
template <typename Execute>
LaneRunner
laneRunner(const Execute &execute)
{
    return [&execute](LaneBucket &bucket, const ResolvedChunk *chunk,
                      unsigned lane) {
        if (chunk == nullptr) {
            bucket.outcomes.resize(bucket.refs.size());
            for (std::size_t k = 0; k < bucket.refs.size(); ++k) {
                bucket.outcomes[k] = execute(bucket.refs[k]);
            }
            return;
        }
        bucket.outcomes.clear();
        std::array<std::uint32_t, kGatherBatch> picked;
        for (std::uint64_t lo = 0; lo < chunk->size;
             lo += kGatherBatch) {
            const std::uint64_t hi =
                std::min(lo + kGatherBatch, chunk->size);
            std::size_t n = 0;
            for (std::uint64_t i = lo; i < hi; ++i) {
                picked[n] = static_cast<std::uint32_t>(i);
                n += chunk->lanes[i] == lane;
            }
            for (std::size_t k = 0; k < n; ++k) {
                bucket.outcomes.push_back(
                    execute(chunk->refs[picked[k]]));
            }
        }
    };
}

/**
 * The epoch pipeline's buffers: sized when an epoch's streams start,
 * shared by both streams, and freed with the epoch, so that their
 * memory serves the epoch's serial phases in between.
 */
struct StreamBuffers
{
    /** RNG-pass tokens: [0] alone, one block, without a pool. */
    std::array<std::vector<RefDraw>, 2> tokens;
    /**
     * Resolved chunks.  Without a pool [0] alone holds the lane tags
     * of the chunk and the references of one block.
     */
    std::array<ResolvedChunk, 3> chunks;
    /** Each lane's share of the chunk being run. */
    std::array<LaneBucket, kMachineLanes> lanes;
    /** Each lane's host time in the current stream. */
    std::array<LaneBusy, kMachineLanes> busy;
};

/**
 * The epoch pipeline: run @p streams, in order, through one schedule
 * of fixed-size chunks, the streams' chunks back to back.
 *
 * Each chunk takes four steps.  A serial RNG pass draws its tokens
 * from the stream's Rng (Workload::draw).  A pure resolve turns each
 * token into a MemRef and tags it with its lane (Workload::resolve,
 * laneOf).  Every lane runs its references in draw order.  Then the
 * stream's replay, when set, sees each reference and its outcome in
 * draw order.
 *
 * With a pool (kPipelineChunkRefs per chunk) the steps of three
 * chunks overlap: while the pool runs chunk c's lanes and resolves
 * chunk c+1 in kResolveBlock blocks, the calling thread draws chunk
 * c+2, even when c+2 belongs to the next stream.  Each lane job picks
 * its references out of the resolved chunk by lane tag.  Once both
 * have joined, the pool resolves chunk c+2 while the calling thread
 * replays chunk c.  Two token and three resolved buffers rotate
 * between the chunks.  Without a pool
 * (kChunkRefs per chunk) each chunk is drawn, resolved and bucketed
 * by lane one block at a time, then its lanes run inline and it is
 * replayed.  Either way:
 *  - RNG passes run on the calling thread in stream order, then
 *    chunk order, so every Rng (and pattern state that both streams
 *    share, such as a scan cursor) advances exactly as a
 *    reference-at-a-time loop would advance it;
 *  - a lane runs its chunks in order, so its timing work precedes
 *    its profiling work;
 *  - replays and `joined` hooks run on the calling thread in global
 *    chunk order, and no lane starts chunk c+1 before chunk c's
 *    replay has finished.
 * Draws and resolves read only workload state, which
 * Workload::advance() writes before the streams and neither the
 * lanes nor the replays write, so running them early changes no
 * result.  If a draw or a submit throws, every job is joined before
 * the error propagates; a job's error surfaces from the join.
 *
 * Each stream runs in one @p profiler / @p tracer scope named after
 * it, whose children time the RNG pass (`draw`), the join
 * (`resolve`, or `lanes` when nothing was resolved) and the replay;
 * without a pool the resolve and lanes steps are timed on their own.
 * With an enabled profiler, each stream also records its lanes' host
 * time as concurrent children: the busiest lane's
 * (`lanes_busy_max`) and the mean over lanes (`lanes_busy_mean`).
 */
void
runStreams(Workload &workload, ThreadPool *pool, Profiler *profiler,
           EventTracer *tracer, StreamBuffers &buffers,
           std::span<StreamSpec> streams)
{
    const bool timed = profiler != nullptr && profiler->enabled();
    const auto run_lane = [&](const StreamSpec &stream,
                              const ResolvedChunk *chunk,
                              unsigned lane) {
        const Ns begin = timed ? profiler->now() : 0;
        stream.runLane(buffers.lanes[lane], chunk, lane);
        if (timed) {
            buffers.busy[lane].ns += profiler->now() - begin;
        }
    };
    // Replay in draw order: one cursor per lane bucket, advanced by
    // following the lane tag of each draw.  With a pool the
    // references are the chunk's own, else the buckets'.
    const auto replay = [&](const StreamSpec &stream,
                            const ResolvedChunk &chunk) {
        if (!stream.replay) {
            return;
        }
        PhaseScope scope(profiler, "replay");
        std::array<std::size_t, kMachineLanes> cursor{};
        for (std::uint64_t i = 0; i < chunk.size; ++i) {
            const LaneBucket &bucket = buffers.lanes[chunk.lanes[i]];
            const std::size_t k = cursor[chunk.lanes[i]]++;
            stream.replay(pool != nullptr ? chunk.refs[i]
                                          : bucket.refs[k],
                          bucket.outcomes[k]);
        }
    };
    const auto begin_stream = [&] {
        for (LaneBusy &busy : buffers.busy) {
            busy.ns = 0;
        }
    };
    const auto end_stream = [&](const StreamSpec &stream) {
        if (timed) {
            Ns busiest = 0;
            Ns total = 0;
            for (const LaneBusy &busy : buffers.busy) {
                busiest = std::max(busiest, busy.ns);
                total += busy.ns;
            }
            profiler->record("lanes_busy_max", busiest);
            profiler->record("lanes_busy_mean", total / kMachineLanes);
        }
        if (stream.joined) {
            stream.joined();
        }
    };
    std::uint64_t largest = 0;
    for (const StreamSpec &stream : streams) {
        largest = std::max(largest, stream.count);
    }
    const std::uint64_t chunk_limit =
        pool != nullptr ? kPipelineChunkRefs : kChunkRefs;
    const std::uint64_t chunk_refs = std::min(chunk_limit, largest);

    if (pool == nullptr) {
        const std::uint64_t block_refs =
            std::min(kResolveBlock, chunk_refs);
        std::vector<RefDraw> &tokens = buffers.tokens[0];
        ResolvedChunk &chunk = buffers.chunks[0];
        tokens.resize(block_refs);
        chunk.refs.resize(block_refs);
        chunk.lanes.resize(chunk_refs);
        for (const StreamSpec &stream : streams) {
            PhaseScope scope(profiler, stream.phase, tracer);
            begin_stream();
            for (std::uint64_t first = 0; first < stream.count;
                 first += kChunkRefs) {
                chunk.size = std::min(kChunkRefs, stream.count - first);
                for (LaneBucket &bucket : buffers.lanes) {
                    bucket.refs.clear();
                }
                for (std::uint64_t lo = 0; lo < chunk.size;
                     lo += kResolveBlock) {
                    const std::uint64_t n =
                        std::min(kResolveBlock, chunk.size - lo);
                    {
                        PhaseScope draw(profiler, "draw");
                        workload.draw(stream.rng, {tokens.data(), n});
                    }
                    {
                        PhaseScope resolve(profiler, "resolve");
                        workload.resolve({tokens.data(), n},
                                         {chunk.refs.data(), n});
                    }
                    PhaseScope draw(profiler, "draw");
                    for (std::uint64_t i = 0; i < n; ++i) {
                        const MemRef &ref = chunk.refs[i];
                        const unsigned lane = laneOf(ref.addr);
                        chunk.lanes[lo + i] =
                            static_cast<std::uint8_t>(lane);
                        buffers.lanes[lane].refs.push_back(ref);
                    }
                }
                {
                    PhaseScope lanes(profiler, "lanes");
                    for (unsigned lane = 0; lane < kMachineLanes;
                         ++lane) {
                        run_lane(stream, nullptr, lane);
                    }
                }
                replay(stream, chunk);
            }
            end_stream(stream);
        }
        return;
    }

    // The epoch's chunk sequence: every chunk of streams[0], then
    // every chunk of streams[1], ...
    const auto chunks_of = [](const StreamSpec &stream) {
        return (stream.count + kPipelineChunkRefs - 1) /
               kPipelineChunkRefs;
    };
    std::size_t total = 0;
    for (const StreamSpec &stream : streams) {
        total += chunks_of(stream);
    }
    // Stream and first reference of global chunk @p g.
    const auto locate = [&](std::size_t g) {
        std::size_t s = 0;
        while (g >= chunks_of(streams[s])) {
            g -= chunks_of(streams[s]);
            ++s;
        }
        return std::pair<std::size_t, std::uint64_t>{
            s, g * kPipelineChunkRefs};
    };
    const auto refs_of = [&](std::size_t g) {
        const auto [s, first] = locate(g);
        return std::min(kPipelineChunkRefs, streams[s].count - first);
    };
    for (std::vector<RefDraw> &tokens : buffers.tokens) {
        tokens.resize(chunk_refs);
    }
    for (ResolvedChunk &chunk : buffers.chunks) {
        chunk.refs.resize(chunk_refs);
        chunk.lanes.resize(chunk_refs);
    }
    std::size_t drawn = 0;    // chunks whose RNG pass has run
    std::size_t resolved = 0; // chunks whose resolve was submitted
    const auto draw_next = [&] {
        const std::size_t s = locate(drawn).first;
        const std::uint64_t n = refs_of(drawn);
        PhaseScope scope(profiler, "draw");
        workload.draw(streams[s].rng,
                      {buffers.tokens[drawn % 2].data(), n});
        ++drawn;
    };
    // Submit the resolve of every drawn chunk not yet resolving.
    const auto resolve_drawn = [&] {
        for (; resolved < drawn; ++resolved) {
            const std::uint64_t n = refs_of(resolved);
            ResolvedChunk &chunk = buffers.chunks[resolved % 3];
            chunk.size = n;
            const RefDraw *tokens = buffers.tokens[resolved % 2].data();
            for (std::uint64_t lo = 0; lo < n; lo += kResolveBlock) {
                const std::uint64_t hi = std::min(lo + kResolveBlock, n);
                pool->submit([&workload, &chunk, tokens, lo, hi] {
                    workload.resolve({tokens + lo, hi - lo},
                                     {chunk.refs.data() + lo, hi - lo});
                    for (std::uint64_t i = lo; i < hi; ++i) {
                        chunk.lanes[i] = static_cast<std::uint8_t>(
                            laneOf(chunk.refs[i].addr));
                    }
                });
            }
        }
    };
    const auto join = [&](const char *phase) {
        PhaseScope scope(profiler, phase);
        pool->wait();
    };

    std::size_t g = 0; // next chunk to run
    try {
        for (const StreamSpec &stream : streams) {
            PhaseScope scope(profiler, stream.phase, tracer);
            begin_stream();
            const std::size_t end = g + chunks_of(stream);
            if (g == 0 && end > 0) {
                // Prime the pipeline: chunk 0 resolved, chunk 1
                // resolving.
                draw_next();
                resolve_drawn();
                if (total > 1) {
                    draw_next();
                }
                join("resolve");
                resolve_drawn();
            }
            for (; g < end; ++g) {
                const ResolvedChunk &chunk = buffers.chunks[g % 3];
                for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
                    pool->submit([&run_lane, &stream, &chunk, lane] {
                        run_lane(stream, &chunk, lane);
                    });
                }
                const bool resolving = resolved > g + 1;
                if (drawn < total) {
                    draw_next();
                }
                join(resolving ? "resolve" : "lanes");
                // Chunk g+2 resolves while chunk g is replayed.
                resolve_drawn();
                replay(stream, chunk);
            }
            end_stream(stream);
        }
    } catch (...) {
        // No job may outlive the buffers it reads.
        pool->wait();
        throw;
    }
}

/** Flight-recorder schema: one row per measured epoch. */
std::vector<std::string>
flightColumns()
{
    return {"slowdown",      "actual_ns",  "baseline_ns",
            "overhead_ns",   "slow_accesses", "demote_bytes",
            "promote_bytes", "demotions",  "promotions",
            "wear_writes",   "trap_faults", "cold_bytes",
            "rss_bytes",     "sampled",    "sampled_slow",
            "queue_depth",   "queue_issued_bytes"};
}

} // namespace

// shard: serial-only -- construction precedes any lane fan-out.
Simulation::Simulation(std::unique_ptr<Workload> workload,
                       const SimConfig &config,
                       ThreadPool *shared_pool)
    : config_(config),
      workload_(std::move(workload)),
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
                      &transactions_,
                      static_cast<double>(config.profileWeight)});
    if (policy_ == nullptr) {
        TSTAT_FATAL("unknown tiering policy '%s'",
                    config.policy.c_str());
    }
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
}

ThermostatPolicy &
Simulation::engine()
{
    auto *engine = dynamic_cast<ThermostatPolicy *>(policy_.get());
    TSTAT_ASSERT(engine != nullptr,
                 "engine() requires the thermostat policy");
    return *engine;
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
         delta(now.slowWear, base.slowWear),
         delta(now.weightedFaults, base.weightedFaults),
         static_cast<double>(policy_->coldBytes()),
         static_cast<double>(machine_.space().rssBytes()),
         delta(now.sampled, base.sampled),
         delta(now.sampledSlow, base.sampledSlow),
         static_cast<double>(queue_.occupancy()),
         delta(now.queueIssuedBytes, base.queueIssuedBytes)});
}

// shard: lane-local -- each executor touches only its lane's machine
// state; the replays and the timing hook run on the calling thread
// with no lane in flight.
void
Simulation::runEpochStreams(Ns &epoch_actual, Ns &epoch_baseline)
{
    const Count weight = run_.weight;

    // Timing stream: the modelled TLB, walk, LLC, BadgerTrap and
    // tier path.
    DrawReplay timing_replay;
    if (config_.samplerFeedback && sampler_ != nullptr &&
        policy_->wantsAccessFeedback()) {
        // Each sample stands for ~period offered accesses: scale the
        // feedback so the policy sees calibrated magnitudes.
        const Count sample_weight = weight * config_.sampler.period;
        timing_replay = [this, sample_weight](const MemRef &ref,
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
    const auto timing_execute = [&](const MemRef &ref) {
        const AccessOutcome out = machine_.access(
            ref.addr, ref.type, weight, ref.burstLines);
        return RefOutcome{out.huge, out.sampled};
    };
    const MachineStats before = machine_.stats();
    const auto timing_joined = [&] {
        // Every access adds latency x weight to its lane's stats, so
        // the deltas divide exactly.
        const MachineStats after = machine_.stats();
        epoch_actual += (after.actualTime - before.actualTime) / weight;
        epoch_baseline +=
            (after.baselineTime - before.baselineTime) / weight;
        // Flush the timing lanes' deferred device accounting before
        // the profiling stream, as the merge-barrier contract asks.
        machine_.syncDeviceState();
    };

    // Profiling stream: fine-grained accesses that maintain Accessed
    // bits and poisoned-page counters without touching the timing
    // model.  Grab the component references up front: the Machine
    // accessors that flush deferred device state must not run inside
    // the lane workers.
    const bool pebs =
        config_.machine.countingMode == CountingMode::Pebs;
    const bool feedback = config_.thermostatEnabled &&
                          policy_->wantsAccessFeedback();
    PageTable &table = machine_.space().pageTable();
    BadgerTrap &trap = machine_.trap();
    const Count pebs_budget = run_.pebsBudget;
    Count pebs_records = 0;
    DrawReplay profile_replay;
    if (pebs || feedback) {
        profile_replay = [&](const MemRef &ref, const RefOutcome &out) {
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
    const auto profile_execute = [&](const MemRef &ref) {
        const WalkResult wr = table.walk(ref.addr);
        TSTAT_ASSERT(wr.mapped(), "profile ref unmapped");
        wr.pte->setAccessed();
        if (ref.type == AccessType::Write) {
            wr.pte->setDirty();
        }
        const bool poisoned = wr.pte->poisoned();
        // BadgerTrap counts every poisoned access here; PEBS records
        // are budgeted in draw order by the replay.
        if (poisoned && !pebs) {
            trap.recordAccess(wr.huge ? alignDown2M(ref.addr)
                                      : alignDown4K(ref.addr),
                              config_.profileWeight);
        }
        return RefOutcome{wr.huge, poisoned};
    };

    std::array<StreamSpec, 2> streams{
        StreamSpec{"timing_stream", rng_, config_.samplesPerEpoch,
                   laneRunner(timing_execute), timing_replay,
                   timing_joined},
        StreamSpec{"profile_stream", profileRng_, run_.profileSamples,
                   laneRunner(profile_execute), profile_replay, {}}};
    StreamBuffers buffers;
    runStreams(*workload_, pool_, &profiler_, &tracer_, buffers,
               streams);
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
    runEpochStreams(epoch_actual, epoch_baseline);

    // Flush the lanes' deferred device accounting before
    // anything below (flight rows, the next policy tick) reads the
    // device model.
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
    if (const auto *engine =
            dynamic_cast<const ThermostatPolicy *>(policy_.get())) {
        result.engine = engine->engineStats();
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
