/**
 * @file
 * thermostat_sim: the command-line driver for single experiments.
 *
 *   thermostat_sim --workload redis --target 3 --duration 600 \
 *                  [--warmup 300] [--seed 42] [--mode emu|device] \
 *                  [--counting badgertrap|cmbit|pebs] \
 *                  [--thp on|off] [--spread] [--no-thermostat] \
 *                  [--csv DIR] [--metrics-out FILE] \
 *                  [--metrics-format json|prom] \
 *                  [--trace-out FILE] [--trace-events MASK] \
 *                  [--flight-out FILE] [--profile-out FILE] \
 *                  [--sample-period N] [--sampler-feedback] \
 *                  [--log-level quiet|normal|verbose]
 *
 * Prints the run summary and, with --csv, writes the plot series
 * (footprint.csv, slow_rate.csv, device_rate.csv, summary.csv).
 * --metrics-out dumps the metric registry (hierarchical JSON, or
 * Prometheus text exposition with --metrics-format prom);
 * --trace-out exports the page-lifecycle event trace as Chrome
 * trace-event JSON (open in Perfetto / chrome://tracing), or as
 * JSONL when FILE ends in .jsonl.  --flight-out writes the
 * per-epoch flight-recorder ring (JSONL, or CSV when FILE ends in
 * .csv); --profile-out writes the host-time phase profile tree.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "host/datacenter_host.hh"
#include "policy/policy_factory.hh"
#include "sim/app_tuning.hh"
#include "sim/csv_export.hh"
#include "sim/reporter.hh"
#include "sim/simulation.hh"
#include "workload/cloud_apps.hh"

using namespace thermostat;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --workload NAME [options]\n"
        "  --workload NAME    aerospike | cassandra | mysql-tpcc |"
        " redis |\n"
        "                     in-memory-analytics | web-search |"
        " redis-bursty\n"
        "  --policy NAME      tiering engine (default thermostat;\n"
        "                     see --list-policies)\n"
        "  --cold-fraction F  slow-memory share for the comparison\n"
        "                     engines (default 0.5)\n"
        "  --policy-param K=V tune an engine knob (repeatable; see\n"
        "                     --policy-param help for the keys)\n"
        "  --list-policies    print registered policies and exit\n"
        "  --list-workloads   print known workloads and exit\n"
        "  --target PCT       tolerable slowdown %% (default 3)\n"
        "  --duration SEC     measured seconds (default: natural)\n"
        "  --warmup SEC       warmup seconds (default 0)\n"
        "  --seed N           RNG seed (default 42)\n"
        "  --shards N         epoch-pipeline worker threads (0 =\n"
        "                     auto, 1 = serial; results are\n"
        "                     identical for every value)\n"
        "  --mode emu|device  slow-memory model (default emu)\n"
        "  --counting M       badgertrap | cmbit | pebs\n"
        "  --thp on|off       transparent huge pages (default on)\n"
        "  --spread           enable Sec 6 page spreading\n"
        "  --khugepaged       run the khugepaged recovery daemon\n"
        "  --no-thermostat    baseline run, engine disabled\n"
        "  --csv DIR          write plot series into DIR\n"
        "  --metrics-out FILE write metric registry dump\n"
        "  --metrics-format F json (default) | prom (Prometheus\n"
        "                     text exposition)\n"
        "  --trace-out FILE   write event trace (Chrome JSON, or\n"
        "                     JSONL if FILE ends in .jsonl)\n"
        "  --flight-out FILE  write per-epoch flight recorder\n"
        "                     (JSONL, or CSV if FILE ends in .csv)\n"
        "  --profile-out FILE write host-time phase profile (JSON)\n"
        "  --sample-period N  telemetry sampling period (mean\n"
        "                     accesses per sample; 0 disables;\n"
        "                     default 64)\n"
        "  --sampler-feedback route sampled accesses into the\n"
        "                     policy's access-feedback hook\n"
        "  --trace-events M   comma list of sample,poison,classify,\n"
        "                     migrate,correct,policy,phase | all |"
        " none\n"
        "  --log-level L      quiet | normal | verbose\n"
        "multi-tenant host mode (instead of --workload):\n"
        "  --tenants FILE     run a consolidated host from a tenant\n"
        "                     spec file (one tenant per line, e.g.\n"
        "                     \"id=web workload=web-search"
        " policy=thermostat\";\n"
        "                     grammar: src/host/tenant_spec.hh)\n"
        "  --host-bw-mbps F   shared migration bandwidth cap,\n"
        "                     MB/s (decimal; 0 = unlimited)\n"
        "  --host-fast-cap-mb N    host-wide fast-tier cap, MiB\n"
        "  --tenant-fast-cap-mb N  per-tenant fast-tier cap, MiB\n"
        "  (host mode honours --target --duration --warmup --seed\n"
        "   --shards --mode --counting --thp --metrics-out\n"
        "   --flight-out; per-tenant policy/target come\n"
        "   from the spec file)\n",
        argv0);
    std::exit(2);
}

const char *
nextArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        usage(argv[0]);
    }
    return argv[++i];
}

void
printList(const std::vector<std::string> &names)
{
    for (const std::string &name : names) {
        std::printf("%s\n", name.c_str());
    }
}

/** --list-policies: name plus its registry one-liner. */
void
printPolicyListings()
{
    std::size_t width = 0;
    for (const PolicyListing &l : PolicyFactory::listings()) {
        width = std::max(width, l.name.size());
    }
    for (const PolicyListing &l : PolicyFactory::listings()) {
        std::printf("%-*s  %s\n", static_cast<int>(width),
                    l.name.c_str(), l.description.c_str());
    }
}

/**
 * --policy-param KEY=VALUE.  Unknown keys and out-of-range values
 * are rejected with the same listing-style diagnostic the unknown
 * --policy path uses, so typos fail loudly instead of silently
 * running the defaults.
 */
[[noreturn]] void
badPolicyParam(const std::string &spec, const std::string &error)
{
    std::fprintf(stderr, "bad --policy-param '%s': %s; known keys:\n",
                 spec.c_str(), error.c_str());
    for (const PolicyParamKey &key : policyParamKeys()) {
        std::fprintf(stderr, "  %-24s %s\n", key.key, key.help);
    }
    std::exit(2);
}

void
applyPolicyParam(PolicyParams &params, const std::string &spec)
{
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
        badPolicyParam(spec, "expected KEY=VALUE");
    }
    std::string error;
    if (!setPolicyParam(params, spec.substr(0, eq),
                        spec.substr(eq + 1), &error)) {
        badPolicyParam(spec, error);
    }
}

/** All workload names the CLI accepts, in listing order. */
std::vector<std::string>
cliWorkloadNames()
{
    std::vector<std::string> names = allWorkloadNames();
    names.push_back("redis-bursty");
    return names;
}

[[noreturn]] void
unknownName(const char *what, const std::string &name,
            const std::vector<std::string> &known)
{
    std::fprintf(stderr, "unknown %s '%s'; known:\n", what,
                 name.c_str());
    for (const std::string &k : known) {
        std::fprintf(stderr, "  %s\n", k.c_str());
    }
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string csv_dir;
    SimConfig config;
    double target = 3.0;
    long duration_sec = 0;
    long warmup_sec = 0;
    bool spread = false;
    bool enabled = true;
    std::string mode = "emu";
    std::string counting = "badgertrap";
    std::string thp = "on";
    std::string metrics_out;
    std::string metrics_format = "json";
    std::string trace_out;
    std::string flight_out;
    std::string profile_out;
    std::string tenants_file;
    double host_bw_mbps = 0.0;
    long host_fast_cap_mb = 0;
    long tenant_fast_cap_mb = 0;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--workload")) {
            workload = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--policy")) {
            config.policy = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--cold-fraction")) {
            config.policyParams.coldFraction =
                std::atof(nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--policy-param")) {
            applyPolicyParam(config.policyParams,
                             nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--list-policies")) {
            printPolicyListings();
            return 0;
        } else if (!std::strcmp(arg, "--list-workloads")) {
            printList(cliWorkloadNames());
            return 0;
        } else if (!std::strcmp(arg, "--target")) {
            target = std::atof(nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--duration")) {
            duration_sec = std::atol(nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--warmup")) {
            warmup_sec = std::atol(nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--seed")) {
            config.seed = static_cast<std::uint64_t>(
                std::atoll(nextArg(argc, argv, i)));
        } else if (!std::strcmp(arg, "--shards")) {
            config.shards = static_cast<unsigned>(
                std::atoi(nextArg(argc, argv, i)));
        } else if (!std::strcmp(arg, "--mode")) {
            mode = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--counting")) {
            counting = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--thp")) {
            thp = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--spread")) {
            spread = true;
        } else if (!std::strcmp(arg, "--khugepaged")) {
            config.khugepagedEnabled = true;
        } else if (!std::strcmp(arg, "--no-thermostat")) {
            enabled = false;
        } else if (!std::strcmp(arg, "--csv")) {
            csv_dir = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--metrics-out")) {
            metrics_out = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--metrics-format")) {
            metrics_format = nextArg(argc, argv, i);
            if (metrics_format != "json" &&
                metrics_format != "prom") {
                usage(argv[0]);
            }
        } else if (!std::strcmp(arg, "--trace-out")) {
            trace_out = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--flight-out")) {
            flight_out = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--profile-out")) {
            profile_out = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--sample-period")) {
            config.sampler.period = static_cast<Count>(
                std::atoll(nextArg(argc, argv, i)));
        } else if (!std::strcmp(arg, "--sampler-feedback")) {
            config.samplerFeedback = true;
        } else if (!std::strcmp(arg, "--trace-events")) {
            if (!parseEventMask(nextArg(argc, argv, i),
                                &config.traceMask)) {
                usage(argv[0]);
            }
        } else if (!std::strcmp(arg, "--tenants")) {
            tenants_file = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--host-bw-mbps")) {
            host_bw_mbps = std::atof(nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--host-fast-cap-mb")) {
            host_fast_cap_mb = std::atol(nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--tenant-fast-cap-mb")) {
            tenant_fast_cap_mb = std::atol(nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--log-level")) {
            LogLevel level;
            if (!parseLogLevel(nextArg(argc, argv, i), &level)) {
                usage(argv[0]);
            }
            setLogLevel(level);
        } else {
            usage(argv[0]);
        }
    }
    if (tenants_file.empty() == workload.empty()) {
        usage(argv[0]); // exactly one of --workload / --tenants
    }

    // The event ring only feeds --trace-out; without one, keep
    // nothing, so an overflow warning marks a real export loss.  The
    // lifecycle auditor's sink still sees every event.
    if (trace_out.empty()) {
        config.traceMask = 0;
    }
    config.params.tolerableSlowdownPct = target;
    config.params.spreadHugePages = spread;
    config.thermostatEnabled = enabled;
    if (duration_sec > 0) {
        config.duration = static_cast<Ns>(duration_sec) * kNsPerSec;
    }
    config.warmup = static_cast<Ns>(warmup_sec) * kNsPerSec;

    // Mode switches layered onto a (possibly workload-tuned)
    // machine config; in host mode they land on the base machine
    // and the host re-applies them after per-tenant tuning.
    const auto apply_machine_modes = [&](MachineConfig &machine) {
        if (mode == "device") {
            machine.slowMode = SlowEmuMode::Device;
            machine.trap.faultLatency = 300;
        } else if (mode != "emu") {
            usage(argv[0]);
        }
        if (counting == "cmbit") {
            machine.countingMode = CountingMode::CmBit;
        } else if (counting == "pebs") {
            machine.countingMode = CountingMode::Pebs;
        } else if (counting != "badgertrap") {
            usage(argv[0]);
        }
        if (thp == "off") {
            machine.thpEnabled = false;
        } else if (thp != "on") {
            usage(argv[0]);
        }
    };

    if (!tenants_file.empty()) {
        std::vector<TenantSpec> parsed;
        std::vector<TenantSpec> specs;
        std::string error;
        if (!parseTenantSpecFile(tenants_file, &parsed, &error) ||
            !expandTenantSpecs(parsed, &specs, &error)) {
            std::fprintf(stderr, "--tenants: %s\n", error.c_str());
            return 2;
        }
        apply_machine_modes(config.machine);

        HostConfig hconfig;
        hconfig.base = config;
        hconfig.arbiter.epoch = config.epoch;
        hconfig.arbiter.migrationBwBytesPerSec =
            host_bw_mbps * 1.0e6;
        hconfig.arbiter.hostFastCapBytes =
            static_cast<std::uint64_t>(host_fast_cap_mb) << 20;
        hconfig.arbiter.tenantFastCapBytes =
            static_cast<std::uint64_t>(tenant_fast_cap_mb) << 20;

        DatacenterHost host(specs, hconfig);
        const HostResult hr = host.run();

        TablePrinter table({"tenant", "workload", "policy",
                            "slowdown", "avg", "max", "slo viol",
                            "fast", "denied"});
        for (const TenantOutcome &t : hr.tenants) {
            table.addRow({t.id, t.spec.workload, t.spec.policy,
                          formatPct(t.result.slowdown, 2),
                          formatPct(t.avgEpochSlowdown, 2),
                          formatPct(t.maxEpochSlowdown, 2),
                          std::to_string(t.sloViolations),
                          formatBytes(t.fastBytes),
                          formatBytes(t.bytesDenied)});
        }
        table.print();
        std::printf("host epochs %llu, denials %llu, "
                    "invariant violations %llu, "
                    "isolation violations %llu\n",
                    static_cast<unsigned long long>(hr.hostEpochs),
                    static_cast<unsigned long long>(
                        hr.arbiterDenials),
                    static_cast<unsigned long long>(
                        hr.invariantViolations),
                    static_cast<unsigned long long>(
                        hr.isolationViolations));

        if (!metrics_out.empty()) {
            const std::string text =
                metrics_format == "prom"
                    ? host.metrics().dumpPrometheus()
                    : host.metrics().dumpJson();
            if (!EventTracer::writeFile(metrics_out, text)) {
                return 1;
            }
        }
        if (!flight_out.empty()) {
            const bool csv =
                flight_out.size() >= 4 &&
                flight_out.compare(flight_out.size() - 4, 4,
                                   ".csv") == 0;
            const std::string text =
                csv ? host.flightRecorder().toCsv()
                    : host.flightRecorder().toJsonl();
            if (!EventTracer::writeFile(flight_out, text)) {
                return 1;
            }
        }
        return hr.invariantViolations == 0 &&
                       hr.isolationViolations == 0
                   ? 0
                   : 1;
    }

    if (!isWorkloadName(workload)) {
        unknownName("workload", workload, cliWorkloadNames());
    }
    if (!PolicyFactory::known(config.policy)) {
        unknownName("policy", config.policy,
                    PolicyFactory::names());
    }

    const bool bursty = workload == "redis-bursty";
    const std::string tuned_name = bursty ? "redis" : workload;
    config.machine = tunedMachineConfig(tuned_name);
    apply_machine_modes(config.machine);

    auto w = bursty ? makeRedisBursty(config.seed)
                    : makeWorkload(workload, config.seed);
    Simulation sim(std::move(w), config);
    const SimResult r = sim.run();

    TablePrinter table({"metric", "value"});
    table.addRow({"workload", r.workload});
    table.addRow({"policy", r.policyName});
    table.addRow({"measured seconds",
                  formatNumber(static_cast<double>(r.duration) /
                                   kNsPerSec,
                               0)});
    table.addRow({"RSS", formatBytes(r.finalRssBytes)});
    table.addRow({"cold fraction",
                  formatPct(r.finalColdFraction)});
    table.addRow({"slowdown", formatPct(r.slowdown, 2)});
    table.addRow({"target", formatPct(target / 100.0, 1)});
    table.addRow({"monitoring overhead",
                  formatPct(r.monitorOverheadFraction, 2)});
    table.addRow({"demotion bandwidth",
                  formatRateMBps(r.demotionBytesPerSec)});
    table.addRow({"promotion bandwidth",
                  formatRateMBps(r.promotionBytesPerSec)});
    table.addRow({"promotions",
                  std::to_string(r.engine.promotions)});
    table.addRow({"pages spread",
                  std::to_string(r.engine.pagesSpread)});
    table.addRow({"audit violations",
                  std::to_string(r.auditViolations)});
    table.print();

    if (!metrics_out.empty()) {
        const std::string text =
            metrics_format == "prom"
                ? sim.metrics().dumpPrometheus()
                : sim.metricsJson();
        if (!EventTracer::writeFile(metrics_out, text)) {
            return 1;
        }
    }
    if (!flight_out.empty()) {
        const bool csv =
            flight_out.size() >= 4 &&
            flight_out.compare(flight_out.size() - 4, 4, ".csv") == 0;
        const std::string text = csv
                                     ? sim.flightRecorder().toCsv()
                                     : sim.flightRecorder().toJsonl();
        if (!EventTracer::writeFile(flight_out, text)) {
            return 1;
        }
    }
    if (!profile_out.empty() &&
        !EventTracer::writeFile(profile_out,
                                sim.profiler().toJson())) {
        return 1;
    }
    if (!trace_out.empty()) {
        const bool jsonl =
            trace_out.size() >= 6 &&
            trace_out.compare(trace_out.size() - 6, 6, ".jsonl") == 0;
        const std::string text = jsonl ? sim.tracer().toJsonl()
                                       : sim.tracer().toChromeTrace();
        if (!EventTracer::writeFile(trace_out, text)) {
            return 1;
        }
    }

    if (!csv_dir.empty()) {
        if (writeSimResultCsv(r, csv_dir)) {
            std::printf("\nseries written to %s/\n",
                        csv_dir.c_str());
        } else {
            return 1;
        }
    }
    return 0;
}
