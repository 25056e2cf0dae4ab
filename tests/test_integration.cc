/**
 * @file
 * Cross-module integration tests: full Thermostat runs exercising
 * THP on/off, warmup, slow-memory emulation modes, runtime cgroup
 * writes, working-set change plus correction, and the headline
 * paper property (cold placement within the slowdown budget).
 */

#include <gtest/gtest.h>

#include "sim/app_tuning.hh"
#include "sim/simulation.hh"
#include "workload/cloud_apps.hh"

namespace thermostat
{
namespace
{

/** 128MB footprint: 40% hot, 30% warm, 30% idle. */
std::unique_ptr<ComposedWorkload>
threeZoneWorkload()
{
    auto w = std::make_unique<ComposedWorkload>(
        "three-zone", 300.0e3, 0.8, 400 * kNsPerSec);
    const std::uint64_t bytes = 128_MiB;
    w->addRegion({"data", bytes, 0, true, false});
    TrafficComponent hot;
    hot.region = "data";
    hot.weight = 0.9;
    hot.pattern = std::make_unique<ZipfianPattern>(
        bytes * 4 / 10, 1024, 0.6, true, 1);
    w->addComponent(std::move(hot));
    TrafficComponent warm;
    warm.region = "data";
    warm.weight = 0.0995;
    warm.pattern = std::make_unique<OffsetPattern>(
        bytes * 4 / 10,
        std::make_unique<UniformPattern>(bytes * 3 / 10));
    w->addComponent(std::move(warm));
    // [70%, 100%): idle except a trickle.
    TrafficComponent trickle;
    trickle.region = "data";
    trickle.weight = 0.0005;
    trickle.pattern = std::make_unique<OffsetPattern>(
        bytes * 7 / 10,
        std::make_unique<UniformPattern>(bytes * 3 / 10));
    w->addComponent(std::move(trickle));
    return w;
}

SimConfig
integrationConfig()
{
    SimConfig config;
    config.seed = 3;
    config.samplesPerEpoch = 5000;
    config.profileWeight = 2;
    config.machine.fastTier = TierConfig::dram(512_MiB);
    config.machine.slowTier = TierConfig::slow(512_MiB);
    config.machine.llc.sizeBytes = 2_MiB;
    config.params.sampleFraction = 0.20;
    // A small footprint makes the paper's 30K acc/s budget huge in
    // relative terms; scale the target down so zone boundaries
    // still matter.
    config.params.tolerableSlowdownPct = 0.5;
    config.duration = 240 * kNsPerSec;
    return config;
}

TEST(Integration, ColdZoneMigratesWithinBudget)
{
    SimConfig config = integrationConfig();
    config.duration = 330 * kNsPerSec; // ~11 sampling periods
    Simulation sim(threeZoneWorkload(), config);
    const SimResult r = sim.run();
    // Most of the idle 30% should be found by ~11 periods.
    EXPECT_GT(r.finalColdFraction, 0.20);
    EXPECT_LT(r.finalColdFraction, 0.40);
    // Achieved slowdown stays in the neighbourhood of the target.
    EXPECT_LT(r.slowdown, 0.02);
    // The hot zone never leaves fast memory.
    AddressSpace &space = sim.machine().space();
    const Region *data = space.findRegion("data");
    for (Addr addr = data->base;
         addr < data->base + 128_MiB * 3 / 10;
         addr += kPageSize2M) {
        EXPECT_EQ(space.tierOf(addr), Tier::Fast);
    }
}

TEST(Integration, ColdPagesStayPoisonedForMonitoring)
{
    Simulation sim(threeZoneWorkload(), integrationConfig());
    (void)sim.run();
    for (const Addr page : sim.engine().placedHugePages()) {
        EXPECT_TRUE(sim.machine().trap().isPoisoned(page));
        EXPECT_EQ(sim.machine().space().tierOf(page), Tier::Slow);
    }
}

TEST(Integration, WarmupShiftsMeasurementWindow)
{
    SimConfig config = integrationConfig();
    config.duration = 90 * kNsPerSec;
    config.warmup = 120 * kNsPerSec;
    Simulation sim(threeZoneWorkload(), config);
    const SimResult r = sim.run();
    // Cold data exists from t=0 of the measurement window because
    // Thermostat ran during warmup.
    EXPECT_GT(r.cold2M.at(0).value, 0.0);
    EXPECT_LE(r.cold2M.at(0).time, 5 * kNsPerSec);
    EXPECT_EQ(r.duration, 90 * kNsPerSec);
}

TEST(Integration, DeviceModeAlsoMeetsBudget)
{
    SimConfig config = integrationConfig();
    config.machine.slowMode = SlowEmuMode::Device;
    config.machine.trap.faultLatency = 300;
    Simulation sim(threeZoneWorkload(), config);
    const SimResult r = sim.run();
    EXPECT_GT(r.finalColdFraction, 0.2);
    EXPECT_LT(r.slowdown, 0.05);
    // Device mode sees real slow-tier traffic.
    EXPECT_GT(r.deviceSlowRate.maxValue(), 0.0);
}

TEST(Integration, ThpOffStillClassifies4KPages)
{
    SimConfig config = integrationConfig();
    config.machine.thpEnabled = false;
    config.duration = 180 * kNsPerSec;
    Simulation sim(threeZoneWorkload(), config);
    const SimResult r = sim.run();
    // Everything is 4KB; cold placement must happen via the
    // base-page path.
    EXPECT_EQ(r.engine.coldHugePlaced, 0u);
    EXPECT_GT(r.engine.coldBasePlaced, 0u);
    EXPECT_GT(r.finalColdFraction, 0.05);
}

TEST(Integration, RaisingBudgetAtRuntimePlacesMore)
{
    SimConfig config = integrationConfig();
    config.duration = 300 * kNsPerSec;
    Simulation sim(threeZoneWorkload(), config);
    double cold_at_switch = 0.0;
    sim.setEpochHook([&](Simulation &s, Ns now) {
        if (now == 150 * kNsPerSec) {
            cold_at_switch =
                static_cast<double>(s.engine().coldBytes());
            s.cgroup().setTolerableSlowdownPct(10.0);
        }
    });
    const SimResult r = sim.run();
    EXPECT_GT(static_cast<double>(sim.engine().coldBytes()),
              cold_at_switch);
}

TEST(Integration, WorkingSetShiftTriggersCorrection)
{
    // A phase-shifting zone turns cold pages hot mid-run; the
    // corrector must promote them.
    auto w = std::make_unique<ComposedWorkload>(
        "shifting", 300.0e3, 0.8, 300 * kNsPerSec);
    const std::uint64_t bytes = 64_MiB;
    w->addRegion({"data", bytes, 0, true, false});
    TrafficComponent hot;
    hot.region = "data";
    hot.weight = 0.7;
    hot.pattern =
        std::make_unique<UniformPattern>(bytes / 2);
    w->addComponent(std::move(hot));
    {
        auto inner = std::make_unique<UniformPattern>(bytes / 4);
        auto shifting = std::make_unique<PhaseShiftPattern>(
            std::move(inner), 150 * kNsPerSec, bytes / 4,
            bytes / 2);
        TrafficComponent moving;
        moving.region = "data";
        // Well above the slow-memory budget, so the shift forces
        // the corrector to act.
        moving.weight = 0.3;
        moving.pattern = std::make_unique<OffsetPattern>(
            bytes / 2, std::move(shifting));
        w->addComponent(std::move(moving));
    }
    SimConfig config = integrationConfig();
    config.params.tolerableSlowdownPct = 3.0;
    config.duration = 300 * kNsPerSec;
    Simulation sim(std::move(w), config);
    const SimResult r = sim.run();
    EXPECT_GT(r.engine.promotions, 0u)
        << "corrector never promoted despite a working-set shift";
    // Post-shift the engine must keep the rate bounded: final
    // measured rate under ~2x target.
    EXPECT_LT(r.engineSlowRate.lastValue(),
              2.0 * sim.engine().targetRate());
}

TEST(Integration, TunedConfigsCoverAllApps)
{
    for (const std::string &name : allWorkloadNames()) {
        const MachineConfig config = tunedMachineConfig(name);
        auto w = makeWorkload(name);
        EXPECT_GE(config.fastTier.capacityBytes,
                  w->initialRssBytes())
            << name << ": fast tier smaller than footprint";
        EXPECT_GT(config.walker.walkCacheFactor4K, 0.0);
    }
    // Unknown workloads fall back to defaults.
    const MachineConfig fallback = tunedMachineConfig("unknown");
    EXPECT_EQ(fallback.fastTier.capacityBytes,
              MachineConfig().fastTier.capacityBytes);
}

TEST(Integration, KhugepagedRecoversSplitLeftovers)
{
    SimConfig config = integrationConfig();
    config.khugepagedEnabled = true;
    config.duration = 120 * kNsPerSec;
    config.thermostatEnabled = false;
    Simulation sim(threeZoneWorkload(), config);
    // Split a few pages by hand (a crashed profiling pipeline).
    const Region *data =
        sim.machine().space().findRegion("data");
    for (unsigned i = 0; i < 4; ++i) {
        ASSERT_TRUE(sim.machine().space().splitHuge(
            data->base + i * kPageSize2M));
    }
    (void)sim.run();
    EXPECT_GT(sim.khugepaged().stats().collapses, 3u);
    EXPECT_EQ(sim.machine().space().pageTable().baseLeafCount(),
              0u);
}

TEST(Integration, MemoryCostDropsWithPlacement)
{
    Simulation sim(threeZoneWorkload(), integrationConfig());
    (void)sim.run();
    // Blended cost of the used footprint reflects the cold bytes
    // at 1/3 relative cost.
    const double cost =
        sim.machine().memory().costRelativeToAllFast();
    EXPECT_LT(cost, 0.95);
    EXPECT_GT(cost, 0.6);
}

} // namespace
} // namespace thermostat
