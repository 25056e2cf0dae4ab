/**
 * @file
 * Table 3: data migration rate and false-classification rate of
 * slow memory (MB/s).  Paper: migration <30 MB/s on average
 * (peak 60 MB/s total), false classification up to 10 MB/s
 * (Redis); both far below projected slow-memory bandwidth, and
 * well under device endurance limits (Sec 6 wear discussion).
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_util.hh"

using namespace thermostat;
using namespace thermostat::bench;

int
main(int argc, char **argv)
{
    const bool quick = quickMode(argc, argv);
    banner("Table 3: migration and false-classification bandwidth",
           "Table 3", quick);

    struct PaperRow
    {
        const char *migration;
        const char *falseClass;
    };
    const std::map<std::string, PaperRow> paper = {
        {"aerospike", {"13.3", "9.2"}},
        {"cassandra", {"9.6", "3.8"}},
        {"in-memory-analytics", {"16", "0.4"}},
        {"mysql-tpcc", {"6", "1.8"}},
        {"redis", {"11.3", "10"}},
        {"web-search", {"1.6", "0.3"}},
    };

    TablePrinter table({"Workload", "Migration", "False-class",
                        "Paper migr.", "Paper false",
                        "Max frame wear"});
    for (const std::string &name : benchWorkloadNames()) {
        const long natural = static_cast<long>(
            makeWorkload(name)->naturalDuration() / kNsPerSec);
        const Ns duration =
            scaledDuration(std::min(natural, 1200L), quick);

        SimConfig config = standardConfig(name, 3.0, duration);
        config.traceMask = 0; // no trace export
        Simulation sim(makeWorkload(name), config);
        const SimResult r = sim.run();

        char wear[32];
        std::snprintf(
            wear, sizeof(wear), "%.0f line-writes",
            static_cast<double>(
                sim.machine().memory().slow().maxFrameWear()));
        table.addRow({name,
                      formatRateMBps(r.demotionBytesPerSec),
                      formatRateMBps(r.promotionBytesPerSec),
                      std::string(paper.at(name).migration) +
                          " MB/s",
                      std::string(paper.at(name).falseClass) +
                          " MB/s",
                      wear});
    }
    table.print();
    std::printf("\nExpected shape: single-digit-to-low-tens MB/s "
                "for both columns --\nwell below projected slow-"
                "memory bandwidth and endurance (paper Sec 5.2, "
                "Sec 6).\n");
    return 0;
}
