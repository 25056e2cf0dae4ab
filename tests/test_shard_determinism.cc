/**
 * @file
 * Shard-count invariance matrix: the epoch pipeline must
 * produce byte-identical results for every worker count.
 *
 * The lane split (kMachineLanes, laneOf) is fixed and the merge
 * points are all commutative, so SimConfig.shards only chooses how
 * many threads execute the lanes -- never what they compute.  This
 * suite proves it empirically: for a matrix of seeds x workload
 * configurations (including a Device-mode run, the PEBS mode whose
 * record budget is replayed in draw order, the sampler-feedback and
 * nomad modes whose policy feedback runs in the lanes, and cells
 * whose streams span several chunks, so that fast lanes run ahead
 * of slow ones across the boundary between the streams), the full
 * flight-recorder CSV, the metrics dump and the headline SimResult
 * fields at --shards {2,3,4,8} must equal the --shards 1 reference
 * exactly.  The pipeline's error paths must join every job before
 * an error propagates.
 *
 * The same binary runs under TSan in the shard-determinism CI job,
 * which additionally proves the lane workers share no unsynchronized
 * state.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "harness.hh"
#include "sim/app_tuning.hh"
#include "sim/epoch_pipeline.hh"
#include "workload/cloud_apps.hh"

namespace thermostat
{
namespace
{

using test::halfColdWorkload;
using test::tinySimConfig;
using test::writeHeavyWorkload;

/** One workload/config cell of the matrix. */
struct Cell
{
    const char *name;
    SimConfig config;
    const char *app = nullptr; //!< makeWorkload name
    /** Without an app: the workload factory; null: half-cold. */
    std::unique_ptr<ComposedWorkload> (*build)() = nullptr;
};

std::unique_ptr<Workload>
cellWorkload(const Cell &cell, std::uint64_t seed)
{
    if (cell.app != nullptr) {
        return makeWorkload(cell.app, seed);
    }
    return cell.build != nullptr ? cell.build() : halfColdWorkload();
}

/** Everything we compare between two runs of the same cell. */
struct RunFingerprint
{
    std::string flightCsv;
    std::string metricsJson;
    double slowdown = 0.0;
    double actualSeconds = 0.0;
    Count trapFaults = 0;
    Count slowAccesses = 0;
    Count llcMisses = 0;
    Count tlbMisses = 0;
    Count replicasDropped = 0;
    Count dirtyAborts = 0;
    std::uint64_t samplerDigest = 0;
};

/** Cheap config: ~20 simulated seconds keeps TSan runs affordable. */
SimConfig
matrixConfig(std::uint64_t seed)
{
    SimConfig config = tinySimConfig(seed);
    config.samplesPerEpoch = 2000;
    config.duration = 20 * kNsPerSec;
    config.sampler.keepRecords = true;
    config.sampler.maxRecords = 256;
    return config;
}

std::vector<Cell>
matrixCells(std::uint64_t seed)
{
    std::vector<Cell> cells;
    cells.push_back({"emu-badgertrap", matrixConfig(seed)});

    Cell device{"device-cmbit", matrixConfig(seed)};
    device.config.machine.slowMode = SlowEmuMode::Device;
    device.config.machine.countingMode = CountingMode::CmBit;
    cells.push_back(std::move(device));
    return cells;
}

/**
 * The run modes whose feedback is order-sensitive: PEBS record
 * budgeting, replayed in draw order, and policy access feedback,
 * which the lanes feed (nomad's writes abort transactions and free
 * shadow frames, in draw order at the barrier).
 */
std::vector<Cell>
replayCells(std::uint64_t seed)
{
    std::vector<Cell> cells;
    Cell pebs{"pebs", matrixConfig(seed)};
    pebs.config.machine.countingMode = CountingMode::Pebs;
    pebs.config.pebsMaxRecordsPerSec = 5.0;
    cells.push_back(std::move(pebs));

    Cell sampled{"sampler-feedback-hotness", matrixConfig(seed)};
    sampled.config.policy = "hotness";
    sampled.config.samplerFeedback = true;
    cells.push_back(std::move(sampled));

    Cell nomad{"nomad", matrixConfig(seed)};
    nomad.config.policy = "nomad";
    nomad.config.policyParams.coldFraction = 0.4;
    cells.push_back(std::move(nomad));
    return cells;
}

/**
 * nomad with sampler feedback over the write-heavy working set, both
 * streams several chunks long: writes from the timing lanes' samples
 * and from the profiling lanes drop replicas and abort transactions.
 */
Cell
nomadSampledCell(std::uint64_t seed)
{
    Cell cell{"nomad-sampled-multichunk", tinySimConfig(seed)};
    cell.build = writeHeavyWorkload;
    cell.config.duration = 30 * kNsPerSec;
    cell.config.policy = "nomad";
    cell.config.policyParams.coldFraction = 0.4;
    cell.config.samplerFeedback = true;
    cell.config.samplesPerEpoch = 2 * 65536 + 1;
    cell.config.profileWeight = 1;
    return cell;
}

/**
 * Cells whose streams each span three or more 65536-reference
 * chunks, so the pipeline's draw, resolve and lane steps of
 * neighbouring chunks overlap, and its chunk sequence crosses from
 * the timing stream into the profiling stream:
 * in-memory-analytics (region growth, a scattered Zipf pattern, a
 * scan); cassandra, whose references load the lanes most unevenly
 * (the busiest lane gets about 1.5x the mean), so fast lanes run
 * ahead of slow ones into the profiling stream; nomad over
 * write-heavy cassandra, deciding every epoch so that demotion
 * transactions are open while the lanes feed it writes; nomad with
 * sampler feedback over a write-heavy working set whose writes drop
 * replicas and abort transactions from both streams' lanes; PEBS
 * over analytics, whose modulo counter and record budget run across
 * every chunk and stream boundary in draw order; and sampler
 * feedback over redis, whose timing lanes feed the policy before
 * its profiling lanes do.
 */
std::vector<Cell>
multiChunkCells(std::uint64_t seed)
{
    const auto tuned = [seed](const char *app) {
        SimConfig config;
        config.seed = seed;
        config.machine = tunedMachineConfig(app);
        config.samplesPerEpoch = 2 * 65536 + 1;
        config.duration = 3 * kNsPerSec;
        return config;
    };
    std::vector<Cell> cells;
    cells.push_back({"analytics-multichunk",
                     tuned("in-memory-analytics"),
                     "in-memory-analytics"});
    cells.push_back(
        {"cassandra-multichunk", tuned("cassandra"), "cassandra"});
    Cell nomad{"cassandra-nomad-multichunk", tuned("cassandra"),
               "cassandra"};
    nomad.config.policy = "nomad";
    nomad.config.policyParams.coldFraction = 0.4;
    nomad.config.policyParams.decisionPeriod = kNsPerSec;
    cells.push_back(std::move(nomad));

    cells.push_back(nomadSampledCell(seed));

    Cell pebs{"pebs-multichunk", tuned("in-memory-analytics"),
              "in-memory-analytics"};
    pebs.config.machine.countingMode = CountingMode::Pebs;
    cells.push_back(std::move(pebs));

    Cell sampled{"sampler-feedback-multichunk", tuned("redis"),
                 "redis"};
    sampled.config.policy = "hotness";
    sampled.config.samplerFeedback = true;
    cells.push_back(std::move(sampled));
    return cells;
}

RunFingerprint
runCell(const Cell &cell, unsigned shards)
{
    SimConfig config = cell.config;
    config.shards = shards;
    Simulation sim(cellWorkload(cell, config.seed), config);
    const SimResult result = sim.run();

    RunFingerprint fp;
    fp.flightCsv = sim.flightRecorder().toCsv();
    fp.metricsJson = sim.metricsJson();
    fp.slowdown = result.slowdown;
    fp.actualSeconds = result.actualSeconds;
    fp.trapFaults = result.trap.faults;
    fp.slowAccesses = result.machineStats.weightedSlowAccesses;
    fp.llcMisses = result.llc.misses;
    fp.tlbMisses = result.l2Tlb.misses;
    fp.replicasDropped = result.transactions.replicasDropped;
    fp.dirtyAborts = result.transactions.dirtyAborts;
    if (sim.accessSampler() != nullptr) {
        fp.samplerDigest = sim.accessSampler()->streamDigest();
    }
    return fp;
}

void
expectIdentical(const RunFingerprint &ref, const RunFingerprint &got,
                const char *cell, std::uint64_t seed, unsigned shards)
{
    const std::string where = std::string(cell) + " seed=" +
                              std::to_string(seed) + " shards=" +
                              std::to_string(shards);
    // Exact equality throughout: the pipeline promises byte
    // identity, not tolerance-level agreement.
    EXPECT_EQ(ref.flightCsv, got.flightCsv) << where;
    EXPECT_EQ(ref.metricsJson, got.metricsJson) << where;
    EXPECT_EQ(ref.slowdown, got.slowdown) << where;
    EXPECT_EQ(ref.actualSeconds, got.actualSeconds) << where;
    EXPECT_EQ(ref.trapFaults, got.trapFaults) << where;
    EXPECT_EQ(ref.slowAccesses, got.slowAccesses) << where;
    EXPECT_EQ(ref.llcMisses, got.llcMisses) << where;
    EXPECT_EQ(ref.tlbMisses, got.tlbMisses) << where;
    EXPECT_EQ(ref.replicasDropped, got.replicasDropped) << where;
    EXPECT_EQ(ref.dirtyAborts, got.dirtyAborts) << where;
    EXPECT_EQ(ref.samplerDigest, got.samplerDigest) << where;
}

/**
 * Run every cell of @p cells for seeds [1, @p seeds] at shards
 * {2,3,4,8} against its shards=1 reference; any divergence names its
 * exact cell, and the first one stops the sweep.
 */
void
expectMatrixMatchesSerial(std::uint64_t seeds,
                          std::vector<Cell> (*cells)(std::uint64_t))
{
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        for (const Cell &cell : cells(seed)) {
            const RunFingerprint ref = runCell(cell, 1);
            ASSERT_FALSE(ref.flightCsv.empty());
            for (const unsigned shards : {2u, 3u, 4u, 8u}) {
                expectIdentical(ref, runCell(cell, shards),
                                cell.name, seed, shards);
                if (::testing::Test::HasFailure()) {
                    // One cell's dump is enough; stop early.
                    return;
                }
            }
        }
    }
}

TEST(ShardDeterminism, MatrixMatchesSerialReference)
{
    // 20 seeds x 3 workload configs.
    expectMatrixMatchesSerial(20, matrixCells);
}

TEST(ShardDeterminism, ReplayModesMatchSerialReference)
{
    // Fewer seeds: these cells exist to put the lanes' feedback and
    // the draw-order replay under TSan, not to sample workloads.
    expectMatrixMatchesSerial(3, replayCells);
}

TEST(ShardDeterminism, MultiChunkStreamsMatchSerialReference)
{
    // The pipelined path: each epoch's streams cross chunk
    // boundaries, so later chunks are drawn and resolved while
    // earlier ones run, and each lane moves on to its next chunk,
    // across the boundary between the streams, as soon as that chunk
    // has resolved.
    expectMatrixMatchesSerial(1, multiChunkCells);
}

TEST(ShardDeterminism, NomadSampledCellDropsReplicasAndAborts)
{
    // The cell covers what its name promises: lane-fed writes that
    // drop replicas and abort transactions.
    const RunFingerprint ref = runCell(nomadSampledCell(1), 1);
    EXPECT_GT(ref.replicasDropped, 0u);
    EXPECT_GT(ref.dirtyAborts, 0u);
}

/**
 * Both streams of every multi-chunk cell span at least three chunks
 * (the profiling stream's length follows the app's reference rate),
 * so the cells above keep covering the boundaries they name.
 */
TEST(ShardDeterminism, MultiChunkCellsSpanThreeChunksPerStream)
{
    for (const Cell &cell : multiChunkCells(1)) {
        Simulation sim(cellWorkload(cell, 1), cell.config);
        const double refs = sim.workload().memRefRate() *
                            static_cast<double>(cell.config.epoch) /
                            static_cast<double>(kNsPerSec) /
                            static_cast<double>(cell.config.profileWeight);
        EXPECT_GT(cell.config.samplesPerEpoch, 2u * 65536u) << cell.name;
        EXPECT_GT(refs, 2.0 * 65536.0) << cell.name;
    }
}

/**
 * Uniform offsets over 32MB until its draw budget runs out, then its
 * draw throws.  Given @p active, every resolve counts itself in and
 * out of it, and one draw in 512 lingers, so resolve jobs are still
 * running when the draw throws.
 */
class FailingPattern : public AccessPattern
{
  public:
    explicit FailingPattern(std::uint64_t budget,
                            std::atomic<int> *active = nullptr)
        : budget_(budget), active_(active)
    {
    }

    PatternDraw
    draw(Rng &rng) override
    {
        if (budget_ == 0) {
            throw std::runtime_error("draw failed");
        }
        --budget_;
        return {rng.nextBounded(spanBytes()), 0, 0};
    }

    void
    resolve(std::span<const PatternDraw> tokens,
            std::span<std::uint64_t> offsets) const override
    {
        if (active_ != nullptr) {
            ++*active_;
        }
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            if (active_ != nullptr && tokens[i].value % 512 == 0) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
            offsets[i] = tokens[i].value;
        }
        if (active_ != nullptr) {
            --*active_;
        }
    }

    std::uint64_t spanBytes() const override { return 32_MiB; }

  private:
    std::uint64_t budget_;
    std::atomic<int> *active_;
};

/** A one-component workload over 64MB drawing from @p pattern. */
std::unique_ptr<Workload>
singlePatternWorkload(std::unique_ptr<AccessPattern> pattern)
{
    auto workload = std::make_unique<ComposedWorkload>(
        "failing", 200.0e3, 0.8, 300 * kNsPerSec);
    workload->addRegion({"data", 64_MiB, 0, true, false});
    TrafficComponent traffic;
    traffic.region = "data";
    traffic.pattern = std::move(pattern);
    workload->addComponent(std::move(traffic));
    return workload;
}

TEST(ShardDeterminism, DrawErrorJoinsLanesBeforePropagating)
{
    // The draw of chunk 1 throws while chunk 0's lanes are in
    // flight: the error must reach the caller only after the lanes
    // have joined, since they read the chunk the unwinding frees.
    for (const unsigned shards : {1u, 4u}) {
        SimConfig config = tinySimConfig(5);
        config.samplesPerEpoch = 2 * 65536;
        config.shards = shards;
        Simulation sim(singlePatternWorkload(
                           std::make_unique<FailingPattern>(65536 + 100)),
                       config);
        EXPECT_THROW(sim.run(), std::runtime_error) << shards;
    }
}

TEST(ShardDeterminism, ProfileDrawErrorDuringTimingLanesJoins)
{
    // The timing stream spans two chunks, and the profiling stream's
    // first RNG pass runs out of budget: with a pool it runs while
    // timing chunk 0's lanes run and chunk 1 resolves.  The error
    // must reach the caller only after every job has joined.
    for (const unsigned shards : {1u, 4u}) {
        std::atomic<int> active{0};
        SimConfig config = tinySimConfig(5);
        config.samplesPerEpoch = 2 * 65536;
        config.shards = shards;
        Simulation sim(singlePatternWorkload(
                           std::make_unique<FailingPattern>(
                               2 * 65536 + 100, &active)),
                       config);
        EXPECT_THROW(sim.run(), std::runtime_error) << shards;
        EXPECT_EQ(active.load(), 0) << shards;
    }
}

/**
 * Uniform offsets over 32MB whose resolve throws for the draw with
 * index @p fail_at.  Every resolve counts itself in and out of
 * `active`, and one in 512 lingers, so jobs are still running when
 * the failing one throws.
 */
class ResolveFailingPattern : public AccessPattern
{
  public:
    ResolveFailingPattern(std::uint64_t fail_at,
                          std::atomic<int> &active)
        : failAt_(fail_at), active_(active)
    {
    }

    PatternDraw
    draw(Rng &rng) override
    {
        PatternDraw token{rng.nextBounded(spanBytes()), 0, 0};
        token.within = drawn_++ == failAt_ ? 1 : 0;
        return token;
    }

    void
    resolve(std::span<const PatternDraw> tokens,
            std::span<std::uint64_t> offsets) const override
    {
        ++active_;
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            if (tokens[i].within != 0) {
                --active_;
                throw std::runtime_error("resolve failed");
            }
            if (tokens[i].value % 512 == 0) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
            offsets[i] = tokens[i].value;
        }
        --active_;
    }

    std::uint64_t spanBytes() const override { return 32_MiB; }

  private:
    std::uint64_t failAt_;
    std::uint64_t drawn_ = 0;
    std::atomic<int> &active_;
};

TEST(ShardDeterminism, ResolveErrorJoinsBeforePropagating)
{
    // Chunk 1's resolve throws on a worker while chunk 0's lanes and
    // the other resolve blocks are in flight: the error must reach
    // the caller only after every job has joined.
    for (const unsigned shards : {1u, 4u}) {
        std::atomic<int> active{0};
        SimConfig config = tinySimConfig(5);
        config.samplesPerEpoch = 2 * 65536;
        config.shards = shards;
        Simulation sim(singlePatternWorkload(
                           std::make_unique<ResolveFailingPattern>(
                               65536 + 100, active)),
                       config);
        EXPECT_THROW(sim.run(), std::runtime_error) << shards;
        EXPECT_EQ(active.load(), 0) << shards;
    }
}

TEST(ShardDeterminism, LaneErrorJoinsWhileLaterChunksResolve)
{
    // Lane 3 throws on its second chunk, with a pool only once a
    // later chunk is resolving (one draw in 512 lingers in its
    // resolve) while the other lanes run on.  The error must reach
    // the caller only after every resolve and lane job has joined.
    for (const unsigned shards : {1u, 4u}) {
        std::atomic<int> resolving{0};
        std::atomic<int> running{0};
        std::atomic<bool> overlapped{false};
        Machine machine(tinySimConfig().machine);
        std::unique_ptr<Workload> workload = singlePatternWorkload(
            std::make_unique<FailingPattern>(~0ull, &resolving));
        workload->setup(machine.space());
        workload->advance(0, machine.space());
        std::unique_ptr<ThreadPool> pool =
            shards > 1 ? std::make_unique<ThreadPool>(shards) : nullptr;
        Rng rng(5); // rng: test stream
        std::array<StreamSpec, 1> streams{StreamSpec{
            "timing_stream", rng, 8 * 65536,
            [&](const LaneTask &task) {
                ++running;
                const bool fail = task.lane == 3 && task.firstSeq > 0;
                const auto deadline = std::chrono::steady_clock::now() +
                                      std::chrono::seconds(5);
                while (fail && pool != nullptr && resolving.load() == 0 &&
                       std::chrono::steady_clock::now() < deadline) {
                    std::this_thread::yield();
                }
                overlapped = overlapped || (fail && resolving.load() > 0);
                --running;
                if (fail) {
                    throw std::runtime_error("lane failed");
                }
            },
            {}}};
        EXPECT_THROW(runStreams(*workload, pool.get(), nullptr, nullptr,
                                streams, {}),
                     std::runtime_error)
            << shards;
        EXPECT_EQ(resolving.load(), 0) << shards;
        EXPECT_EQ(running.load(), 0) << shards;
        EXPECT_EQ(overlapped.load(), shards > 1) << shards;
    }
}

/** Whether @p a and @p b touch a common host cache line. */
template <typename Slice>
bool
shareCacheLine(const Slice &a, const Slice &b)
{
    const auto line = [](const Slice &slice, std::size_t byte) {
        return (reinterpret_cast<std::uintptr_t>(&slice) + byte) /
               kCacheLineBytes;
    };
    return line(a, 0) <= line(b, sizeof(Slice) - 1) &&
           line(b, 0) <= line(a, sizeof(Slice) - 1);
}

/** Expect no two lane slices @p slice(l) to share a cache line. */
template <typename SliceOf>
void
expectLanesOnOwnLines(const char *what, const SliceOf &slice)
{
    for (unsigned a = 0; a < kMachineLanes; ++a) {
        for (unsigned b = a + 1; b < kMachineLanes; ++b) {
            EXPECT_FALSE(shareCacheLine(slice(a), slice(b)))
                << what << " lanes " << a << " and " << b;
        }
    }
}

TEST(LaneLayout, LaneSlicesNeverShareACacheLine)
{
    // Lane workers write their slices on every access; a line two
    // slices share would bounce between their cores (and the
    // ownership argument behind the lanes says they share nothing).
    Machine machine(tinySimConfig().machine);
    expectLanesOnOwnLines("TlbShards", [&](unsigned lane) -> auto & {
        return machine.tlb().lane(lane);
    });
    expectLanesOnOwnLines("LlcShards", [&](unsigned lane) -> auto & {
        return machine.llc().lane(lane);
    });
    expectLanesOnOwnLines("Machine", [&](unsigned lane) -> auto & {
        return machine.lane(lane);
    });
    expectLanesOnOwnLines("BadgerTrap", [&](unsigned lane) -> auto & {
        return machine.trap().lane(lane);
    });
}

TEST(ShardDeterminism, AutoShardsNeverExceedLanes)
{
    SimConfig config = matrixConfig(4);
    config.shards = 0;
    Simulation sim(halfColdWorkload(), config);
    EXPECT_GE(sim.shards(), 1u);
    EXPECT_LE(sim.shards(), kMachineLanes);
}

} // namespace
} // namespace thermostat
