/**
 * @file
 * The epoch pipeline: an epoch's reference streams as one sequence of
 * fixed-size chunks, drawn on the calling thread and executed by the
 * machine lanes (DESIGN.md, "Intra-run sharding").
 *
 * A stream is a description -- its Rng, its reference count, what a
 * lane does with each of its references, and an optional draw-order
 * replay -- and runStreams() runs every stream of an epoch through one
 * schedule.  With a pool each machine lane is a strand that runs the
 * chunk sequence in order as fast as the chunks resolve; the only
 * join is at the end of the epoch.
 */

#ifndef THERMOSTAT_SIM_EPOCH_PIPELINE_HH
#define THERMOSTAT_SIM_EPOCH_PIPELINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.hh"
#include "workload/workload.hh"

namespace thermostat
{

class EventTracer;
class Profiler;
class Rng;
class ThreadPool;

/**
 * What a lane reports about one reference to its stream's replay: the
 * leaf size, and whether the page was poisoned.
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

/** One lane's share of one chunk, as its stream's LaneRunner sees it. */
struct LaneTask
{
    unsigned lane;
    /** Every reference's lane tag; with a pool, the references too. */
    const ResolvedChunk &chunk;
    /** Without a pool: the lane's references, in draw order. */
    const std::vector<MemRef> *bucket;
    /** Epoch sequence number of the chunk's first reference. */
    std::uint64_t firstSeq;
    /** Set in draw order when the stream has a replay, else null. */
    std::vector<RefOutcome> *outcomes;
};

/** Runs one lane's references of a chunk (see laneRunner). */
using LaneRunner = std::function<void(const LaneTask &)>;

/** Order-sensitive work on one reference, called in draw order. */
using DrawReplay =
    std::function<void(const MemRef &, const RefOutcome &)>;

/**
 * One reference stream of an epoch: the Rng it draws from, how many
 * references, what a lane does with its references, and the
 * draw-order replay (may be empty).
 */
struct StreamSpec
{
    const char *phase; //!< profiler and tracer scope of the stream
    Rng &rng;
    std::uint64_t count;
    LaneRunner runLane;
    DrawReplay replay;
};

/** Draws a lane scans per pass when it gathers its references. */
constexpr std::uint64_t kGatherBatch = 256;

/**
 * A LaneRunner calling @p execute(ref, seq) on each of the lane's
 * references in draw order, seq being the reference's epoch sequence
 * number, and keeping the RefOutcome it returns when the stream has a
 * replay.  Given a resolved chunk, the lane picks its references out
 * of it by lane tag, a batch of tags at a time, so the lane job, not
 * a serial pass, buckets the chunk.  A bucket is run straight through
 * unless @p sequenced, when the tags supply each reference's seq.
 */
template <typename Execute>
LaneRunner
laneRunner(const Execute &execute, bool sequenced)
{
    return [&execute, sequenced](const LaneTask &task) {
        std::vector<RefOutcome> *outcomes = task.outcomes;
        if (outcomes != nullptr) {
            outcomes->clear();
        }
        const auto run = [&](const MemRef &ref, std::uint64_t seq) {
            const RefOutcome out = execute(ref, seq);
            if (outcomes != nullptr) {
                outcomes->push_back(out);
            }
        };
        if (task.bucket != nullptr && !sequenced) {
            for (const MemRef &ref : *task.bucket) {
                run(ref, 0);
            }
            return;
        }
        const ResolvedChunk &chunk = task.chunk;
        std::size_t k = 0; // next reference of the bucket
        std::array<std::uint32_t, kGatherBatch> picked;
        for (std::uint64_t lo = 0; lo < chunk.size; lo += kGatherBatch) {
            const std::uint64_t hi = std::min(lo + kGatherBatch, chunk.size);
            std::size_t n = 0;
            for (std::uint64_t i = lo; i < hi; ++i) {
                picked[n] = static_cast<std::uint32_t>(i);
                n += chunk.lanes[i] == task.lane;
            }
            for (std::size_t j = 0; j < n; ++j) {
                const std::uint32_t i = picked[j];
                run(task.bucket != nullptr ? (*task.bucket)[k++]
                                           : chunk.refs[i],
                    task.firstSeq + i);
            }
        }
    };
}

/**
 * Run @p streams (at least one), in order, as one sequence of chunks,
 * then @p barrier once every lane has finished (see epoch_pipeline.cc
 * for the schedule and its order rules).  @p pool null runs the lanes
 * inline.  Each stream runs in one @p profiler / @p tracer scope
 * named after it.  If any step throws, every job is joined before the
 * error propagates.
 */
void runStreams(Workload &workload, ThreadPool *pool, Profiler *profiler,
                EventTracer *tracer, std::span<StreamSpec> streams,
                const std::function<void()> &barrier);

} // namespace thermostat

#endif // THERMOSTAT_SIM_EPOCH_PIPELINE_HH
