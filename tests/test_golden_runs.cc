/**
 * @file
 * Golden-run regression tests: pin byte-exact CSV output for one
 * small configuration per figure family (fig03, fig11, tab04), and
 * the flight CSV, metrics JSON, sampler digest and lifecycle-event
 * digest of each run mode whose per-reference work is
 * order-sensitive (nomad, remap, hotness, static, PEBS counting,
 * sampler feedback), plus a nomad run whose streams span several
 * pipeline chunks.
 *
 * Any diff against the checked-in goldens means the simulator's
 * behaviour changed -- exactly what a change that claims to be
 * behaviour-neutral must not do.  To regenerate after an intentional
 * change:
 *
 *     THERMOSTAT_REGOLDEN=1 ./build/tests/test_golden_runs
 *
 * and commit the updated files under tests/golden/.
 */

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include <gtest/gtest.h>

#include "harness.hh"
#include "sim/csv_export.hh"

#ifndef THERMOSTAT_GOLDEN_DIR
#error "tests/CMakeLists.txt must define THERMOSTAT_GOLDEN_DIR"
#endif

namespace thermostat
{
namespace
{

using test::TempDir;
using test::halfColdWorkload;
using test::slurpFile;
using test::spillFile;
using test::tinySimConfig;
using test::writeHeavyWorkload;

/**
 * Compare @p produced against the checked-in golden file, or rewrite
 * the golden when THERMOSTAT_REGOLDEN is set in the environment.
 */
void
checkGolden(const std::string &name, const std::string &produced)
{
    const std::string path =
        std::string(THERMOSTAT_GOLDEN_DIR) + "/" + name;
    if (std::getenv("THERMOSTAT_REGOLDEN") != nullptr) {
        ASSERT_TRUE(spillFile(path, produced))
            << "cannot regenerate " << path;
        return;
    }
    const std::string want = slurpFile(path);
    ASSERT_FALSE(want.empty())
        << "missing golden file " << path
        << "; run with THERMOSTAT_REGOLDEN=1 to create it";
    EXPECT_EQ(want, produced)
        << "output of " << name
        << " drifted from the golden run; if the change is "
           "intentional, regenerate with THERMOSTAT_REGOLDEN=1";
}

std::string
formatRow(const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

/** Fig 3 family: one full run exported through writeSimResultCsv. */
TEST(GoldenRuns, Fig03FamilyCsvFiles)
{
    SimConfig config = tinySimConfig(42);
    config.duration = 120 * kNsPerSec;
    Simulation sim(halfColdWorkload(), config);
    const SimResult result = sim.run();
    EXPECT_EQ(result.auditViolations, 0u);

    TempDir dir;
    ASSERT_TRUE(writeSimResultCsv(result, dir.path()));
    for (const char *name :
         {"footprint.csv", "slow_rate.csv", "device_rate.csv",
          "summary.csv"}) {
        checkGolden(std::string("fig03_") + name,
                    slurpFile(dir.file(name)));
    }
}

/**
 * The same run with the engine resolved through the policy factory
 * by its registered name: the tiering-policy refactor must be
 * byte-invisible against the fig03 goldens.
 */
TEST(GoldenRuns, ExplicitThermostatPolicyMatchesFig03Golden)
{
    SimConfig config = tinySimConfig(42);
    config.duration = 120 * kNsPerSec;
    config.policy = "thermostat";
    Simulation sim(halfColdWorkload(), config);
    const SimResult result = sim.run();
    EXPECT_EQ(result.policyName, "thermostat");
    EXPECT_EQ(result.auditViolations, 0u);

    TempDir dir;
    ASSERT_TRUE(writeSimResultCsv(result, dir.path()));
    for (const char *name :
         {"footprint.csv", "slow_rate.csv", "device_rate.csv",
          "summary.csv"}) {
        checkGolden(std::string("fig03_") + name,
                    slurpFile(dir.file(name)));
    }
}

/** Fig 11 family: slowdown-target sweep summary. */
TEST(GoldenRuns, Fig11SlowdownTargetSweep)
{
    std::string csv = "target_pct,slowdown,avg_cold_fraction,"
                      "final_cold_fraction,demotion_bytes_per_sec\n";
    for (const double target : {1.0, 3.0, 10.0}) {
        SimConfig config = tinySimConfig(7);
        config.duration = 90 * kNsPerSec;
        config.params.tolerableSlowdownPct = target;
        Simulation sim(halfColdWorkload(), config);
        const SimResult result = sim.run();
        EXPECT_EQ(result.auditViolations, 0u);
        csv += formatRow("%.1f,%.5f,%.5f,%.5f,%.1f\n", target,
                         result.slowdown, result.avgColdFraction,
                         result.finalColdFraction,
                         result.demotionBytesPerSec);
    }
    checkGolden("fig11_slowdown.csv", csv);
}

/**
 * Config shared by the access-order golden cells below.  The high
 * promotion threshold makes the hot/cold verdicts depend on the
 * feedback counts themselves, not only on which pages were seen.
 */
SimConfig
accessOrderConfig(const char *policy)
{
    SimConfig config = tinySimConfig(21);
    config.duration = 60 * kNsPerSec;
    config.reportInterval = 20 * kNsPerSec;
    config.policy = policy;
    config.policyParams.coldFraction = 0.4;
    config.policyParams.promoteRateThreshold = 8000.0;
    return config;
}

/**
 * Order-sensitive digest of a run's lifecycle events (all but the
 * host-time Phase events): FNV-1a over each event's kind, simulated
 * time, address, size and payload, in ring order.  Nomad's replica
 * drops and PEBS-driven placements show up here in the order the
 * feedback produced them.
 */
std::string
lifecycleDigest(const EventTracer &tracer)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto mix = [&hash](std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xffu;
            hash *= 0x100000001b3ULL;
        }
    };
    std::size_t count = 0;
    for (const TraceEvent &ev : tracer.events()) {
        if (ev.kind == EventKind::Phase) {
            continue;
        }
        mix(static_cast<std::uint64_t>(ev.kind));
        mix(ev.time);
        mix(ev.addr);
        mix(ev.huge ? 1 : 0);
        mix(ev.value);
        ++count;
    }
    return "events=" + std::to_string(count) +
           " digest=" + std::to_string(hash) + "\n";
}

/**
 * Run @p config at one and at four shards and pin both runs' flight
 * CSV, metrics JSON, sampler digest and lifecycle-event digest
 * against the goldens named "<stem>_flight.csv",
 * "<stem>_metrics.json", "<stem>_sampler_digest.txt" and
 * "<stem>_events_digest.txt".  These cells cover the run modes whose
 * per-reference work is order-sensitive (policy access feedback,
 * PEBS counting, sampler feedback), so the epoch pipeline cannot
 * reorder that work without a golden diff.
 */
SimResult
checkAccessOrderGoldens(const std::string &stem, SimConfig config,
                        std::unique_ptr<ComposedWorkload> (*workload)())
{
    SimResult first;
    for (const unsigned shards : {1u, 4u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        config.shards = shards;
        Simulation sim(workload(), config);
        SimResult result = sim.run();
        EXPECT_EQ(result.auditViolations, 0u);
        checkGolden(stem + "_flight.csv",
                    sim.flightRecorder().toCsv());
        checkGolden(stem + "_metrics.json", sim.metricsJson());
        checkGolden(stem + "_sampler_digest.txt",
                    std::to_string(
                        sim.accessSampler()->streamDigest()) +
                        "\n");
        checkGolden(stem + "_events_digest.txt",
                    lifecycleDigest(sim.tracer()));
        if (shards == 1) {
            first = std::move(result);
        }
    }
    return first;
}

TEST(GoldenRuns, NomadWriteHeavyFeedback)
{
    // The default promotion threshold promotes the reader's whole
    // window, replicas included, so the writer can drop them.
    SimConfig config = accessOrderConfig("nomad");
    config.policyParams.promoteRateThreshold =
        PolicyParams{}.promoteRateThreshold;
    const SimResult r = checkAccessOrderGoldens(
        "nomad_write_heavy", config, writeHeavyWorkload);
    EXPECT_GT(r.transactions.dirtyAborts, 0u);
    EXPECT_GT(r.transactions.replicasDropped, 0u);
    EXPECT_EQ(r.transactions.ledgerViolations, 0u);
}

TEST(GoldenRuns, NomadWriteHeavyAcrossChunks)
{
    // Both streams span several 65536-reference chunks, so each
    // later chunk is drawn while the previous chunk's lanes run and
    // the nomad replay crosses chunk boundaries.
    SimConfig config = accessOrderConfig("nomad");
    config.policyParams.promoteRateThreshold =
        PolicyParams{}.promoteRateThreshold;
    config.samplesPerEpoch = 2 * 65536 + 1;
    config.profileWeight = 1;
    const SimResult r = checkAccessOrderGoldens(
        "nomad_multichunk", config, writeHeavyWorkload);
    EXPECT_GT(r.transactions.dirtyAborts, 0u);
    EXPECT_GT(r.transactions.replicasDropped, 0u);
}

TEST(GoldenRuns, RemapFeedback)
{
    const SimResult r = checkAccessOrderGoldens(
        "remap", accessOrderConfig("remap"), writeHeavyWorkload);
    EXPECT_GT(r.queue.issued, 0u);
    EXPECT_GT(r.policy.promotionsOrdered, 0u);
}

TEST(GoldenRuns, HotnessFeedback)
{
    const SimResult r = checkAccessOrderGoldens(
        "hotness", accessOrderConfig("hotness"), writeHeavyWorkload);
    EXPECT_GT(r.policy.demotionsOrdered, 0u);
    EXPECT_GT(r.policy.promotionsOrdered, 0u);
}

TEST(GoldenRuns, StaticFeedbackWhileProfiling)
{
    // A budget past the never-touched pages, so the placement also
    // ranks touched pages by their feedback counts.
    SimConfig config = accessOrderConfig("static");
    config.policyParams.coldFraction = 0.7;
    const SimResult r =
        checkAccessOrderGoldens("static", config, writeHeavyWorkload);
    EXPECT_EQ(r.policy.decisionPeriods, 1u);
    EXPECT_GT(r.policy.demotionsOrdered, 0u);
}

TEST(GoldenRuns, PebsCountingWithBindingRecordBudget)
{
    SimConfig config = accessOrderConfig("thermostat");
    config.machine.countingMode = CountingMode::Pebs;
    config.pebsMaxRecordsPerSec = 20.0;
    const SimResult bounded =
        checkAccessOrderGoldens("pebs", config, halfColdWorkload);

    // The record budget must bind: lifting it changes what the
    // engine counts, hence its placement.
    config.pebsMaxRecordsPerSec = 1.0e9;
    config.shards = 1;
    Simulation unbounded(halfColdWorkload(), config);
    EXPECT_NE(bounded.slowdown, unbounded.run().slowdown);
}

TEST(GoldenRuns, SamplerFeedbackUnderHotness)
{
    SimConfig config = accessOrderConfig("hotness");
    config.samplerFeedback = true;
    checkAccessOrderGoldens("sampler_feedback_hotness", config,
                            writeHeavyWorkload);
    // The sampled feedback must reach the policy: its run differs
    // from the profile-feedback-only hotness cell.
    const std::string dir = THERMOSTAT_GOLDEN_DIR;
    EXPECT_NE(slurpFile(dir + "/sampler_feedback_hotness_flight.csv"),
              slurpFile(dir + "/hotness_flight.csv"));
}

/** Tab 4 family: device-mode run with the memory-cost summary. */
TEST(GoldenRuns, Tab04DeviceModeSummary)
{
    SimConfig config = tinySimConfig(13);
    config.duration = 90 * kNsPerSec;
    config.machine.slowMode = SlowEmuMode::Device;
    Simulation sim(halfColdWorkload(), config);
    const SimResult result = sim.run();
    EXPECT_EQ(result.auditViolations, 0u);

    std::string csv = "key,value\n";
    csv += formatRow("slowdown,%.5f\n", result.slowdown);
    csv += formatRow("cost_relative_to_all_fast,%.6f\n",
                     sim.machine().memory().costRelativeToAllFast());
    csv += formatRow("final_cold_fraction,%.5f\n",
                     result.finalColdFraction);
    csv += formatRow("rss_bytes,%llu\n",
                     static_cast<unsigned long long>(
                         result.finalRssBytes));
    csv += formatRow("demotion_bytes_per_sec,%.1f\n",
                     result.demotionBytesPerSec);
    checkGolden("tab04_device_summary.csv", csv);
}

} // namespace
} // namespace thermostat
