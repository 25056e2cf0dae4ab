/**
 * @file
 * Shard-count invariance matrix: the epoch pipeline must
 * produce byte-identical results for every worker count.
 *
 * The lane split (kMachineLanes, laneOf) is fixed and the merge
 * points are all commutative, so SimConfig.shards only chooses how
 * many threads execute the lanes -- never what they compute.  This
 * suite proves it empirically: for a matrix of seeds x workload
 * configurations (including a fault-plan run, and the PEBS,
 * sampler-feedback and nomad modes whose order-sensitive work is
 * replayed in draw order, and cells whose streams span several
 * draw-ahead chunks), the full flight-recorder CSV, the metrics
 * dump and the headline SimResult fields at --shards {2,4,8} must
 * equal the --shards 1 reference exactly.
 *
 * The same binary runs under TSan in the shard-determinism CI job,
 * which additionally proves the lane workers share no unsynchronized
 * state.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hh"
#include "sim/app_tuning.hh"
#include "workload/cloud_apps.hh"

namespace thermostat
{
namespace
{

using test::halfColdWorkload;
using test::tinySimConfig;

/** One workload/config cell of the matrix. */
struct Cell
{
    const char *name;
    SimConfig config;
    const char *app = nullptr; //!< makeWorkload name; null: half-cold
};

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

    Cell faulty{"device-faultplan", matrixConfig(seed)};
    faulty.config.machine.slowMode = SlowEmuMode::Device;
    std::string error;
    EXPECT_TRUE(FaultPlan::parse(
        "slow-latency:from=5,until=12,factor=3;"
        "wear-retire:at=12,count=2",
        faulty.config.faultPlan, error))
        << error;
    cells.push_back(std::move(faulty));
    return cells;
}

/**
 * The run modes whose order-sensitive work (PEBS record budgeting,
 * sampler feedback, policy access feedback -- nomad's writes abort
 * transactions and free shadow frames) is replayed in draw order
 * after the lanes fan out.
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
 * Cells whose streams each span three or more 65536-reference
 * chunks, so the draw of chunk c+1 overlaps the lanes of chunk c:
 * in-memory-analytics (region growth, a scattered Zipf pattern, a
 * scan) and nomad over write-heavy cassandra, deciding every epoch
 * so that demotion transactions are open while its replay feeds
 * writes to the transaction engine.
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
    Cell nomad{"cassandra-nomad-multichunk", tuned("cassandra"),
               "cassandra"};
    nomad.config.policy = "nomad";
    nomad.config.policyParams.coldFraction = 0.4;
    nomad.config.policyParams.decisionPeriod = kNsPerSec;
    cells.push_back(std::move(nomad));
    return cells;
}

RunFingerprint
runCell(const Cell &cell, unsigned shards)
{
    SimConfig config = cell.config;
    config.shards = shards;
    Simulation sim(cell.app != nullptr
                       ? makeWorkload(cell.app, config.seed)
                       : halfColdWorkload(),
                   config);
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
    EXPECT_EQ(ref.samplerDigest, got.samplerDigest) << where;
}

/**
 * Run every cell of @p cells for seeds [1, @p seeds] at shards
 * {2,4,8} against its shards=1 reference; any divergence names its
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
            for (const unsigned shards : {2u, 4u, 8u}) {
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
    // Fewer seeds: these cells exist to put the draw-order replay
    // under TSan next to the lane workers, not to sample workloads.
    expectMatrixMatchesSerial(3, replayCells);
}

TEST(ShardDeterminism, MultiChunkStreamsMatchSerialReference)
{
    // The draw-ahead path: each epoch's streams cross chunk
    // boundaries, so chunk c+1 is drawn while chunk c's lanes run.
    expectMatrixMatchesSerial(1, multiChunkCells);
}

/** Uniform offsets over 32MB until its budget runs out, then throws. */
class FailingPattern : public AccessPattern
{
  public:
    explicit FailingPattern(std::uint64_t budget) : budget_(budget) {}

    std::uint64_t
    next(Rng &rng) override
    {
        if (budget_ == 0) {
            throw std::runtime_error("draw failed");
        }
        --budget_;
        return rng.nextBounded(spanBytes());
    }

    std::uint64_t spanBytes() const override { return 32_MiB; }

  private:
    std::uint64_t budget_;
};

TEST(ShardDeterminism, DrawErrorJoinsLanesBeforePropagating)
{
    // The draw of chunk 1 throws while chunk 0's lanes are in
    // flight: the error must reach the caller only after the lanes
    // have joined, since they read the chunk the unwinding frees.
    for (const unsigned shards : {1u, 4u}) {
        auto workload = std::make_unique<ComposedWorkload>(
            "failing", 200.0e3, 0.8, 300 * kNsPerSec);
        workload->addRegion({"data", 64_MiB, 0, true, false});
        TrafficComponent traffic;
        traffic.region = "data";
        traffic.pattern = std::make_unique<FailingPattern>(65536 + 100);
        workload->addComponent(std::move(traffic));
        SimConfig config = tinySimConfig(5);
        config.samplesPerEpoch = 2 * 65536;
        config.shards = shards;
        Simulation sim(std::move(workload), config);
        EXPECT_THROW(sim.run(), std::runtime_error) << shards;
    }
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
