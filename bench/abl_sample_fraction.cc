/**
 * @file
 * Ablation: the per-period sampling fraction (paper Sec 3.2 uses
 * 5%).  More sampling reacts faster to workload changes but costs
 * more monitoring; the paper notes this trade-off explicitly
 * (Sec 3.1: "sampling only a small fraction ... leads to a policy
 * that adapts only slowly").
 */

#include <cstdio>

#include "bench_util.hh"

using namespace thermostat;
using namespace thermostat::bench;

int
main(int argc, char **argv)
{
    const bool quick = quickMode(argc, argv);
    banner("Ablation: huge-page sample fraction per period",
           "Sec 3.2 design choice (5%)", quick);

    const Ns duration = scaledDuration(450, quick);
    const double fractions[] = {0.01, 0.05, 0.10, 0.20};

    TablePrinter table({"fraction", "cold frac @450s", "slowdown",
                        "overhead", "splits"});
    for (const double f : fractions) {
        SimConfig config =
            standardConfig("cassandra", 3.0, duration);
        config.params.sampleFraction = f;
        Simulation sim(makeCassandra(), config);
        const SimResult r = sim.run();
        table.addRow({formatPct(f, 0),
                      formatPct(r.finalColdFraction),
                      formatPct(r.slowdown, 2),
                      formatPct(r.monitorOverheadFraction, 2),
                      std::to_string(r.policy.decisionPeriods)});
    }
    table.print();
    std::printf("\nExpected: larger fractions converge on the cold "
                "set faster (higher\ncold fraction at a fixed "
                "horizon) at slightly higher overhead.\n");
    return 0;
}
