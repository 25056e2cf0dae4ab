#include "sim/epoch_pipeline.hh"

#include <atomic>
#include <condition_variable>
#include <optional>
#include <stdexcept>

#include "common/mutex.hh"
#include "common/thread_pool.hh"
#include "obs/profiler.hh"

namespace thermostat
{

namespace
{

/** References per chunk without a pool: bounds the lane buckets,
 *  amortizes the lane fan-out. */
constexpr std::uint64_t kChunkRefs = 65536;

/** References per chunk with a pool: half as many, so the ring's
 *  buffers stay small and the lanes start sooner. */
constexpr std::uint64_t kPipelineChunkRefs = 32768;

/** References per resolve block: 16 KB of RefDraw tokens, which the
 *  one-shard path resolves while they are still in L1, and 32 pool
 *  jobs per chunk. */
constexpr std::uint64_t kResolveBlock = 1024;

/** Chunks in flight with a pool: the calling thread draws chunk g
 *  into the buffers chunk g - kRingDepth has finished with. */
constexpr std::size_t kRingDepth = 4;

/** One lane's host time in one stream, on its own line. */
struct alignas(kCacheLineBytes) LaneBusy
{
    Ns ns = 0; // shard: lane-local
};

/** Each lane's host time in one stream. */
using StreamBusy = std::array<LaneBusy, kMachineLanes>;

/** One lane's outcomes of one chunk, on its own lines. */
struct alignas(kCacheLineBytes) LaneOutcomes
{
    std::vector<RefOutcome> refs; // shard: lane-local
};

/** One lane's share of a chunk without a pool. */
struct LaneBucket
{
    std::vector<MemRef> refs;         //!< in draw order
    std::vector<RefOutcome> outcomes; //!< in draw order, set by the lane
};

/**
 * One chunk buffer of the ring: the chunk's RNG-pass tokens, its
 * resolved references and, for a stream with a replay, each lane's
 * outcomes.
 */
struct RingSlot
{
    std::vector<RefDraw> tokens; // shard: serial-only (the drawer's)
    /** Written by its resolve jobs, then read by lanes and replay. */
    ResolvedChunk chunk; // shard: read-only once resolved
    std::array<LaneOutcomes, kMachineLanes> outcomes; // shard: lane-local
    /** Resolve blocks of the chunk not yet finished. */
    std::atomic<std::uint32_t> resolvesLeft{0}; // shard: idempotent
};

/**
 * The lanes' progress through an epoch's chunk sequence, shared by
 * the lane jobs, the resolve jobs and the calling thread.
 *
 * Each lane is a strand: one pool job runs chunk g of the lane, then
 * goes on to chunk g+1 if it has resolved, else parks the lane.  The
 * resolve job that finishes chunk g resubmits every lane parked at g.
 * One mutex orders the two, so exactly one of them runs the lane's
 * chunk g; the lanes never wait on one another, on a replay or on
 * the calling thread.
 */
class Strands
{
  public:
    using RunLane = std::function<void(unsigned lane, std::size_t g)>;

    Strands(ThreadPool &pool, std::size_t total, RunLane run)
        : pool_(pool), total_(total), run_(std::move(run))
    {
        parked_.fill(true);
    }

    // Jobs hold its address.
    Strands(const Strands &) = delete;
    Strands &operator=(const Strands &) = delete;

    /** A resolve job finished chunk @p g: start the lanes parked at it. */
    void
    resolved(std::size_t g) TSTAT_EXCLUDES(mutex_)
    {
        std::array<bool, kMachineLanes> start{};
        {
            MutexLock lock(&mutex_);
            resolved_[g % kRingDepth] = g + 1;
            if (failed_) {
                return;
            }
            for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
                start[lane] = parked_[lane] && done_[lane] == g;
                parked_[lane] = parked_[lane] && !start[lane];
            }
        }
        for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
            if (start[lane]) {
                pool_.submit([this, lane, g] { strand(lane, g); });
            }
        }
    }

    /** Chunks every lane has finished. */
    std::size_t
    lanesDone() TSTAT_EXCLUDES(mutex_)
    {
        MutexLock lock(&mutex_);
        return minDone();
    }

    /**
     * Block until every lane has finished @p chunks chunks.  False
     * when a job failed first.
     */
    bool
    waitLanes(std::size_t chunks) TSTAT_EXCLUDES(mutex_)
    {
        MutexLock lock(&mutex_);
        progress_.wait(mutex_, [&] {
            mutex_.assertHeld();
            return failed_ || minDone() >= chunks;
        });
        return !failed_;
    }

    /** Stop every strand at its next chunk boundary. */
    void
    fail() TSTAT_EXCLUDES(mutex_)
    {
        {
            MutexLock lock(&mutex_);
            failed_ = true;
        }
        progress_.notify_all();
    }

  private:
    /** Lane @p lane's job: chunk @p g, then every resolved successor. */
    void
    strand(unsigned lane, std::size_t g) TSTAT_EXCLUDES(mutex_)
    {
        for (bool more = true; more;) {
            try {
                run_(lane, g);
            } catch (...) {
                fail();
                throw;
            }
            {
                MutexLock lock(&mutex_);
                done_[lane] = ++g;
                more = g < total_ && !failed_ &&
                       resolved_[g % kRingDepth] == g + 1;
                parked_[lane] = !more && g < total_;
            }
            progress_.notify_all();
        }
    }

    std::size_t
    minDone() const TSTAT_REQUIRES(mutex_)
    {
        std::size_t least = done_[0];
        for (const std::size_t done : done_) {
            least = std::min(least, done);
        }
        return least;
    }

    ThreadPool &pool_;  // shard: read-only
    std::size_t total_; // shard: read-only
    RunLane run_;       // shard: read-only
    Mutex mutex_; // shard: serial-only (guards the members below)
    /** A lane finished a chunk, or a job failed. */
    std::condition_variable_any progress_; // shard: idempotent
    /** Chunks each lane has finished. */
    std::array<std::size_t, kMachineLanes> done_ TSTAT_GUARDED_BY(mutex_){};
    /** The lane has no job and waits for chunk done_[lane]. */
    std::array<bool, kMachineLanes> parked_ TSTAT_GUARDED_BY(mutex_){};
    /** 1 + the chunk each ring slot last resolved; 0: none yet. */
    std::array<std::size_t, kRingDepth> resolved_ TSTAT_GUARDED_BY(
        mutex_){};
    bool failed_ TSTAT_GUARDED_BY(mutex_) = false;
};

} // namespace

/**
 * The epoch pipeline: run @p streams, in order, through one sequence
 * of fixed-size chunks, the streams' chunks back to back, then
 * @p barrier.
 *
 * Each chunk takes four steps.  A serial RNG pass draws its tokens
 * from the stream's Rng (Workload::draw).  A pure resolve turns each
 * token into a MemRef and tags it with its lane (Workload::resolve,
 * laneOf).  Every lane runs its references in draw order, each with
 * its epoch sequence number (its place in the draw order of all the
 * epoch's streams).  Then the stream's replay, when set, sees each
 * reference and its outcome in draw order.
 *
 * With a pool (kPipelineChunkRefs per chunk) each lane is a strand
 * over the chunk sequence, and the schedule keeps four rules:
 *  - the calling thread runs every RNG pass, in stream order, then
 *    chunk order, so every Rng (and pattern state that both streams
 *    share, such as a scan cursor) advances exactly as a
 *    reference-at-a-time loop would advance it;
 *  - a lane runs chunk g as soon as g has resolved and the lane has
 *    finished chunk g-1, across the boundary between the streams, so
 *    within each lane timing work precedes profiling work;
 *  - the calling thread replays chunk g once all of g's lanes have
 *    finished, in chunk order; no lane ever waits for a replay;
 *  - the ring has kRingDepth chunk buffers; the calling thread draws
 *    chunk g into the one of chunk g - kRingDepth once that chunk's
 *    lanes and replay are done with it.
 * Each chunk's resolve runs as pool jobs of kResolveBlock references.
 * The pool is joined once, after the last chunk's lanes; then the
 * barrier runs.  A replay runs beside the lanes of later chunks, so
 * it may write only state that no lane reads (DESIGN.md lists each).
 * Without a pool (kChunkRefs per chunk) each chunk is drawn, resolved
 * and bucketed by lane one block at a time, then its lanes run inline
 * and it is replayed.
 *
 * Draws and resolves read only workload state, which
 * Workload::advance() writes before the streams and neither the
 * lanes nor the replays write, so running them early changes no
 * result.  If a draw, a resolve or a lane throws, the strands stop at
 * their next chunk boundary and every job is joined before the error
 * propagates; a job's error surfaces from the join.  The ring's
 * buffers live for one call: their memory serves the epoch's serial
 * phases in between.
 *
 * Each stream runs in one @p profiler / @p tracer scope named after
 * it.  With a pool a stream's scope ends when its last chunk's lanes
 * have finished (the next stream's draws may already have run in
 * it); its children time the RNG passes (`draw`), the calling thread
 * waiting on the lanes (`lanes`), the replays (`replay`), and, in the
 * last stream, the final join (`join`) and the barrier.  Without a
 * pool the resolve and lanes steps are timed on their own.  With an
 * enabled profiler each stream also records its lanes' host time as
 * concurrent children, the busiest lane's (`lanes_busy_max`) and the
 * mean over lanes (`lanes_busy_mean`), and the enclosing scope gets
 * the calling thread's busy time in draws, resolves, replays and the
 * barrier (`serial_busy`).
 */
void
runStreams(Workload &workload, ThreadPool *pool, Profiler *profiler,
           EventTracer *tracer, std::span<StreamSpec> streams,
           const std::function<void()> &barrier)
{
    const bool timed = profiler != nullptr && profiler->enabled();
    std::vector<StreamBusy> busy(timed ? streams.size() : 0);
    Ns serial_ns = 0;
    // Run @p step on the calling thread, counted as its busy time.
    const auto serial = [&](const auto &step) {
        const Ns begin = timed ? profiler->now() : 0;
        step();
        if (timed) {
            serial_ns += profiler->now() - begin;
        }
    };
    const auto end_stream = [&](std::size_t s) {
        if (!timed) {
            return;
        }
        Ns busiest = 0;
        Ns total = 0;
        for (const LaneBusy &lane : busy[s]) {
            busiest = std::max(busiest, lane.ns);
            total += lane.ns;
        }
        profiler->record("lanes_busy_max", busiest);
        profiler->record("lanes_busy_mean", total / kMachineLanes);
    };
    const auto end_streams = [&] {
        if (timed) {
            profiler->record("serial_busy", serial_ns);
        }
    };
    // Run one lane's share of a chunk of stream @p s.
    const auto run_lane = [&](std::size_t s, const LaneTask &task) {
        const Ns begin = timed ? profiler->now() : 0;
        streams[s].runLane(task);
        if (timed) {
            busy[s][task.lane].ns += profiler->now() - begin;
        }
    };
    // Replay in draw order: one cursor per lane, advanced by
    // following the lane tag of each reference.
    const auto replay =
        [&](const StreamSpec &stream, const ResolvedChunk &chunk,
            const auto &refs_of, const auto &outcomes_of) {
            if (!stream.replay) {
                return;
            }
            PhaseScope scope(profiler, "replay");
            serial([&] {
                std::array<std::size_t, kMachineLanes> cursor{};
                for (std::uint64_t i = 0; i < chunk.size; ++i) {
                    const unsigned lane = chunk.lanes[i];
                    const std::size_t k = cursor[lane]++;
                    stream.replay(refs_of(i, lane, k),
                                  outcomes_of(lane)[k]);
                }
            });
        };
    const auto run_barrier = [&] {
        if (barrier) {
            serial(barrier);
        }
    };
    std::uint64_t largest = 0;
    for (const StreamSpec &stream : streams) {
        largest = std::max(largest, stream.count);
    }

    if (pool == nullptr) {
        const std::uint64_t chunk_refs = std::min(kChunkRefs, largest);
        const std::uint64_t block_refs =
            std::min(kResolveBlock, chunk_refs);
        std::vector<RefDraw> tokens(block_refs);
        ResolvedChunk chunk;
        chunk.refs.resize(block_refs);
        chunk.lanes.resize(chunk_refs);
        std::array<LaneBucket, kMachineLanes> buckets;
        std::uint64_t seq = 0; // first reference of the chunk
        for (std::size_t s = 0; s < streams.size(); ++s) {
            const StreamSpec &stream = streams[s];
            PhaseScope scope(profiler, stream.phase, tracer);
            for (std::uint64_t first = 0; first < stream.count;
                 first += kChunkRefs, seq += chunk.size) {
                chunk.size = std::min(kChunkRefs, stream.count - first);
                for (LaneBucket &bucket : buckets) {
                    bucket.refs.clear();
                }
                for (std::uint64_t lo = 0; lo < chunk.size;
                     lo += kResolveBlock) {
                    const std::uint64_t n =
                        std::min(kResolveBlock, chunk.size - lo);
                    {
                        PhaseScope draw(profiler, "draw");
                        serial([&] {
                            workload.draw(stream.rng,
                                          {tokens.data(), n});
                        });
                    }
                    {
                        PhaseScope resolve(profiler, "resolve");
                        serial([&] {
                            workload.resolve({tokens.data(), n},
                                             {chunk.refs.data(), n});
                        });
                    }
                    PhaseScope draw(profiler, "draw");
                    serial([&] {
                        for (std::uint64_t i = 0; i < n; ++i) {
                            const MemRef &ref = chunk.refs[i];
                            const unsigned lane = laneOf(ref.addr);
                            chunk.lanes[lo + i] =
                                static_cast<std::uint8_t>(lane);
                            buckets[lane].refs.push_back(ref);
                        }
                    });
                }
                {
                    PhaseScope lanes(profiler, "lanes");
                    for (unsigned lane = 0; lane < kMachineLanes;
                         ++lane) {
                        LaneBucket &bucket = buckets[lane];
                        run_lane(s, {lane, chunk, &bucket.refs, seq,
                                     stream.replay ? &bucket.outcomes
                                                   : nullptr});
                    }
                }
                replay(
                    stream, chunk,
                    [&](std::uint64_t, unsigned lane, std::size_t k)
                        -> const MemRef & {
                        return buckets[lane].refs[k];
                    },
                    [&](unsigned lane) -> const std::vector<RefOutcome> & {
                        return buckets[lane].outcomes;
                    });
            }
            if (s + 1 == streams.size()) {
                run_barrier();
            }
            end_stream(s);
        }
        end_streams();
        return;
    }

    // The epoch's chunk sequence: every chunk of streams[0], then
    // every chunk of streams[1], ...  ends[s] is one past stream s's
    // last chunk; firsts[s] is its first reference's sequence number.
    std::vector<std::size_t> ends(streams.size());
    std::vector<std::uint64_t> firsts(streams.size());
    std::size_t total = 0;
    std::uint64_t seq = 0;
    for (std::size_t s = 0; s < streams.size(); ++s) {
        total += (streams[s].count + kPipelineChunkRefs - 1) /
                 kPipelineChunkRefs;
        ends[s] = total;
        firsts[s] = seq;
        seq += streams[s].count;
    }
    const auto stream_of = [&](std::size_t g) {
        std::size_t s = 0;
        while (g >= ends[s]) {
            ++s;
        }
        return s;
    };
    // Chunk @p g's first reference within its stream @p s.
    const auto first_of = [&](std::size_t s, std::size_t g) {
        return (g - (s == 0 ? 0 : ends[s - 1])) * kPipelineChunkRefs;
    };
    const std::uint64_t chunk_refs = std::min(kPipelineChunkRefs, largest);
    std::array<RingSlot, kRingDepth> ring;
    Strands strands(*pool, total, [&](unsigned lane, std::size_t g) {
        const std::size_t s = stream_of(g);
        RingSlot &slot = ring[g % kRingDepth];
        run_lane(s, {lane, slot.chunk, nullptr,
                     firsts[s] + first_of(s, g),
                     streams[s].replay ? &slot.outcomes[lane].refs
                                       : nullptr});
    });

    std::size_t open = 0;     // stream whose scope is open
    std::size_t replayed = 0; // chunks replayed (or with no replay)
    std::optional<PhaseScope> scope;
    scope.emplace(profiler, streams[0].phase, tracer);
    // Close the scope of every stream whose chunks all come before
    // chunk @p g (never the last stream's).
    const auto close_before = [&](std::size_t g) {
        while (open + 1 < streams.size() && ends[open] <= g) {
            end_stream(open);
            scope.reset();
            ++open;
            scope.emplace(profiler, streams[open].phase, tracer);
        }
    };
    // Surface a failed job: its error rethrows from the join.
    const auto join_failed = [&] {
        pool->wait();
        throw std::logic_error("epoch pipeline job failed silently");
    };
    // Replay every chunk whose lanes have finished and close the
    // scope of every stream whose lanes have finished, first waiting
    // until every lane has finished @p need chunks.
    const auto advance = [&](std::size_t need) {
        for (;;) {
            const std::size_t done = strands.lanesDone();
            for (; replayed < done; ++replayed) {
                close_before(replayed);
                const StreamSpec &stream = streams[open];
                const RingSlot &slot = ring[replayed % kRingDepth];
                replay(
                    stream, slot.chunk,
                    [&](std::uint64_t i, unsigned, std::size_t)
                        -> const MemRef & { return slot.chunk.refs[i]; },
                    [&](unsigned lane) -> const std::vector<RefOutcome> & {
                        return slot.outcomes[lane].refs;
                    });
            }
            close_before(done);
            if (done >= need) {
                return;
            }
            PhaseScope wait(profiler, "lanes");
            if (!strands.waitLanes(done + 1)) {
                join_failed();
            }
        }
    };

    try {
        for (std::size_t g = 0; g < total; ++g) {
            if (g >= kRingDepth) {
                advance(g - kRingDepth + 1);
            }
            const std::size_t s = stream_of(g);
            RingSlot &slot = ring[g % kRingDepth];
            const std::uint64_t n = std::min(
                kPipelineChunkRefs, streams[s].count - first_of(s, g));
            if (slot.tokens.empty()) {
                slot.tokens.resize(chunk_refs);
                slot.chunk.refs.resize(chunk_refs);
                slot.chunk.lanes.resize(chunk_refs);
            }
            {
                PhaseScope draw(profiler, "draw");
                serial([&] {
                    workload.draw(streams[s].rng,
                                  {slot.tokens.data(), n});
                });
            }
            slot.chunk.size = n;
            const std::uint64_t blocks =
                (n + kResolveBlock - 1) / kResolveBlock;
            slot.resolvesLeft.store(static_cast<std::uint32_t>(blocks),
                                    std::memory_order_relaxed);
            for (std::uint64_t lo = 0; lo < n; lo += kResolveBlock) {
                const std::uint64_t hi = std::min(lo + kResolveBlock, n);
                pool->submit([&workload, &strands, &slot, g, lo, hi] {
                    ResolvedChunk &chunk = slot.chunk;
                    try {
                        workload.resolve(
                            {slot.tokens.data() + lo, hi - lo},
                            {chunk.refs.data() + lo, hi - lo});
                    } catch (...) {
                        strands.fail();
                        throw;
                    }
                    for (std::uint64_t i = lo; i < hi; ++i) {
                        chunk.lanes[i] = static_cast<std::uint8_t>(
                            laneOf(chunk.refs[i].addr));
                    }
                    if (slot.resolvesLeft.fetch_sub(
                            1, std::memory_order_acq_rel) == 1) {
                        strands.resolved(g);
                    }
                });
            }
            advance(0);
        }
        advance(total);
        {
            PhaseScope join(profiler, "join");
            pool->wait();
        }
    } catch (...) {
        // No job may outlive the ring it reads.
        strands.fail();
        pool->wait();
        throw;
    }
    run_barrier();
    end_stream(open);
    scope.reset();
    end_streams();
}

} // namespace thermostat
