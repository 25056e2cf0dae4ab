/**
 * @file
 * Quickstart: run Thermostat on one workload and print what it did.
 *
 * Usage: quickstart [workload] [tolerable_slowdown_pct] [seconds]
 *   workload: aerospike | cassandra | mysql-tpcc | redis |
 *             in-memory-analytics | web-search   (default redis)
 *
 * Demonstrates the core public API: build a workload, configure the
 * machine and Thermostat parameters, run the simulation, inspect the
 * result.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/app_tuning.hh"
#include "sim/reporter.hh"
#include "sim/simulation.hh"
#include "workload/cloud_apps.hh"

using namespace thermostat;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "redis";
    const double slowdown_pct = argc > 2 ? std::atof(argv[2]) : 3.0;
    const long seconds = argc > 3 ? std::atol(argv[3]) : 300;

    SimConfig config;
    config.seed = 42;
    config.machine = tunedMachineConfig(name);
    config.params.tolerableSlowdownPct = slowdown_pct;
    if (seconds > 0) {
        config.duration = static_cast<Ns>(seconds) * kNsPerSec;
    }

    std::printf("Thermostat quickstart: %s, %.1f%% tolerable "
                "slowdown, %lds\n\n",
                name.c_str(), slowdown_pct, seconds);

    Simulation sim(makeWorkload(name), config);
    const SimResult result = sim.run();

    std::printf("RSS: %s (file-mapped %s)\n",
                formatBytes(result.finalRssBytes).c_str(),
                formatBytes(result.finalFileBytes).c_str());
    std::printf("cold data placed in slow memory: %s (%s of RSS)\n",
                formatBytes(static_cast<std::uint64_t>(
                                result.cold2M.lastValue() +
                                result.cold4K.lastValue()))
                    .c_str(),
                formatPct(result.finalColdFraction).c_str());
    std::printf("measured slowdown: %s (target %s)\n",
                formatPct(result.slowdown, 2).c_str(),
                formatPct(slowdown_pct / 100.0, 1).c_str());
    std::printf("monitoring overhead: %s\n",
                formatPct(result.monitorOverheadFraction, 3).c_str());
    std::printf("migration bandwidth: %s demote, %s promote\n",
                formatRateMBps(result.demotionBytesPerSec).c_str(),
                formatRateMBps(result.promotionBytesPerSec).c_str());
    std::printf("engine: %llu periods, %llu cold 2MB pages, "
                "%llu cold 4KB pages, %llu promotions\n",
                static_cast<unsigned long long>(
                    result.policy.decisionPeriods),
                static_cast<unsigned long long>(
                    result.engine.coldHugePlaced),
                static_cast<unsigned long long>(
                    result.engine.coldBasePlaced),
                static_cast<unsigned long long>(
                    result.engine.promotions));
    std::printf("        %llu collapse failures, %llu migration "
                "failures\n\n",
                static_cast<unsigned long long>(
                    result.engine.collapseFailures),
                static_cast<unsigned long long>(
                    result.policy.placementFailures));

    std::printf("timing: %.2fs actual vs %.2fs baseline; "
                "%.1fM weighted faults (%.1f%% of time)\n\n",
                result.actualSeconds, result.baselineSeconds,
                static_cast<double>(result.trap.weightedFaults) /
                    1e6,
                static_cast<double>(result.trap.weightedFaults) *
                    850e-9 / result.baselineSeconds * 100.0);

    std::printf("cold footprint over time:\n");
    printSeries(result.cold2M, "bytes (2MB pages)", 12);
    std::printf("\nslow-memory access rate (target %.0f acc/s):\n",
                sim.cgroup().params().targetSlowAccessRate());
    printSeries(result.engineSlowRate, "acc/s", 12);
    return 0;
}
