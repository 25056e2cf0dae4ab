#include "bench_util.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "common/logging.hh"

namespace thermostat::bench
{

bool
quickMode(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            return true;
        }
    }
    const char *env = std::getenv("THERMOSTAT_QUICK");
    return env != nullptr && env[0] == '1';
}

std::vector<std::string>
benchWorkloadNames()
{
    if (const char *only = std::getenv("THERMOSTAT_ONLY")) {
        if (only[0] != '\0') {
            return {std::string(only)};
        }
    }
    return allWorkloadNames();
}

Ns
scaledDuration(long seconds, bool quick)
{
    if (quick) {
        seconds = std::max(120L, seconds / 4);
    }
    return static_cast<Ns>(seconds) * kNsPerSec;
}

SimConfig
standardConfig(const std::string &workload,
               double tolerable_slowdown_pct, Ns duration)
{
    SimConfig config;
    config.seed = 42;
    config.machine = tunedMachineConfig(workload);
    config.params.tolerableSlowdownPct = tolerable_slowdown_pct;
    config.duration = duration;
    return config;
}

SimResult
runThermostat(const std::string &workload,
              double tolerable_slowdown_pct, Ns duration,
              std::uint64_t seed, Ns warmup)
{
    SimConfig config =
        standardConfig(workload, tolerable_slowdown_pct, duration);
    config.seed = seed;
    config.warmup = warmup;
    config.traceMask = 0; // only the result is kept: no trace export
    Simulation sim(makeWorkload(workload, seed), config);
    return sim.run();
}

SimResult
runPolicy(const std::string &workload, const std::string &policy,
          double tolerable_slowdown_pct, double cold_fraction,
          Ns duration, std::uint64_t seed, Ns warmup)
{
    SimConfig config =
        standardConfig(workload, tolerable_slowdown_pct, duration);
    config.seed = seed;
    config.warmup = warmup;
    config.policy = policy;
    config.policyParams.coldFraction = cold_fraction;
    config.traceMask = 0; // only the result is kept: no trace export
    Simulation sim(makeWorkload(workload, seed), config);
    return sim.run();
}

double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    TSTAT_ASSERT(x.size() == y.size() && !x.empty(),
                 "pearson: size mismatch");
    const double n = static_cast<double>(x.size());
    const double mx =
        std::accumulate(x.begin(), x.end(), 0.0) / n;
    const double my =
        std::accumulate(y.begin(), y.end(), 0.0) / n;
    double sxy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double dx = x[i] - mx;
        const double dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0) {
        return 0.0;
    }
    return sxy / std::sqrt(sxx * syy);
}

namespace
{

std::vector<double>
ranks(const std::vector<double> &v)
{
    std::vector<std::size_t> order(v.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&v](std::size_t a, std::size_t b) {
                  return v[a] < v[b];
              });
    std::vector<double> rank(v.size());
    std::size_t i = 0;
    while (i < order.size()) {
        std::size_t j = i;
        while (j + 1 < order.size() &&
               v[order[j + 1]] == v[order[i]]) {
            ++j;
        }
        const double mid =
            (static_cast<double>(i) + static_cast<double>(j)) / 2.0;
        for (std::size_t k = i; k <= j; ++k) {
            rank[order[k]] = mid;
        }
        i = j + 1;
    }
    return rank;
}

} // namespace

double
spearman(std::vector<double> x, std::vector<double> y)
{
    return pearson(ranks(x), ranks(y));
}

void
banner(const std::string &title, const std::string &paper_ref,
       bool quick)
{
    std::printf("==============================================="
                "=============\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s (Thermostat, ASPLOS'17)%s\n",
                paper_ref.c_str(),
                quick ? "  [QUICK MODE: durations / 4]" : "");
    std::printf("==============================================="
                "=============\n\n");
}

void
runColdFootprintFigure(const std::string &workload,
                       const std::string &figure,
                       const std::string &paper_notes, bool quick)
{
    banner(figure + ": cold data identified at run time (" +
               workload + ")",
           figure, quick);
    const long natural = static_cast<long>(
        makeWorkload(workload)->naturalDuration() / kNsPerSec);
    const Ns duration =
        scaledDuration(natural < 1400 ? natural : 1400, quick);
    // In-memory analytics runs from a cold start (its footprint
    // growth is the point of Fig 9); the server workloads are
    // measured after warmup, as in the paper.
    const Ns warmup = workload == "in-memory-analytics"
                          ? 0
                          : scaledDuration(300, quick);
    const SimResult r =
        runThermostat(workload, 3.0, duration, 42, warmup);

    std::printf("cold 2MB data over time:\n");
    printSeries(r.cold2M, "bytes", 16);
    std::printf("cold 4KB data over time:\n");
    printSeries(r.cold4K, "bytes", 8);
    std::printf("hot 2MB data over time:\n");
    printSeries(r.hot2M, "bytes", 8);
    std::printf("\nfinal cold fraction: %s of %s RSS\n",
                formatPct(r.finalColdFraction).c_str(),
                formatBytes(r.finalRssBytes).c_str());
    std::printf("achieved slowdown: %s (target 3%%)\n",
                formatPct(r.slowdown, 2).c_str());
    std::printf("monitoring overhead: %s\n",
                formatPct(r.monitorOverheadFraction, 2).c_str());
    std::printf("\nPaper: %s\n", paper_notes.c_str());
}

} // namespace thermostat::bench
