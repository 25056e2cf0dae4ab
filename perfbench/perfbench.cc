/**
 * @file
 * perfbench: end-to-end and per-layer benchmark of the simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--sim-seconds T] [--trace-out FILE] [--commit SHA]
 *             [--corrupt fingerprint|audit]
 *
 * One process runs one named workload (see kWorkloads) through the
 * public Simulation API only: the constructor, startRun, stepEpoch
 * and finishRun, then reads profiler(), metrics().snapshot(),
 * machine() and the migration queue / transaction stats.
 *
 * --trace 0 times whole runs with the Profiler off and reports the
 * end-to-end metrics: medians over as many repeats of the same seed
 * as fit in --seconds (at least two), each repeat --sim-seconds
 * simulated 1 s epochs (default 120, so the per-repeat epoch p90
 * has at least ten epochs beyond it).  --trace 1 alternates
 * untraced and traced repeats; a traced repeat records a span
 * around every public call and turns each epoch's Profiler node
 * deltas into child spans, writes them as Chrome trace JSON to
 * --trace-out, and reports the per-layer metrics.
 *
 * Every repeat is checked: zero lifecycle-audit violations, zero
 * transaction-ledger violations, and a fingerprint of the simulated
 * results (SimResult scalars, stats and flight rows) identical to
 * the first repeat's, traced or not.  A repeat that fails any check
 * counts as failed.  --corrupt perturbs one repeat's fingerprint or
 * audit count, so the self-test can show the checks bite.
 *
 * The last stdout line is one JSON object:
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "sim/app_tuning.hh"
#include "sim/simulation.hh"
#include "workload/cloud_apps.hh"

using namespace thermostat;

namespace
{

/** Paper reference point (Fig 8/9 of the ASPLOS'17 paper). */
struct PaperRef
{
    const char *figure;
    const char *text;     //!< as EXPERIMENTS.md quotes it
    double coldPct;       //!< midpoint of the quoted cold range
    double slowdownPct;   //!< midpoint of the quoted slowdown range
};

struct WorkloadSpec
{
    const char *name;
    const char *app;      //!< makeWorkload / tunedMachineConfig name
    const char *policy;   //!< PolicyFactory name
    unsigned maxShards;   //!< capped at the host's core count
    const PaperRef *paper; //!< null: the paper has no such run
};

const PaperRef kFig8{"Fig 8", "~10% cold at 2-3% slowdown", 10.0, 2.5};
const PaperRef kFig9{"Fig 9", "15-20% cold at ~3% slowdown", 17.5, 3.0};

const WorkloadSpec kWorkloads[] = {
    {"redis-serial", "redis", "thermostat", 1, &kFig8},
    {"analytics-sharded", "in-memory-analytics", "thermostat", 4,
     &kFig9},
    {"cassandra-nomad", "cassandra", "nomad", 4, nullptr},
};

struct Options
{
    const WorkloadSpec *spec = nullptr;
    std::uint64_t seed = 1;
    double seconds = 40.0;
    bool trace = false;
    long simSeconds = 120;
    std::string traceOut = "perfbench-trace.json";
    std::string commit = "unknown";
    std::string corrupt; //!< "", "fingerprint" or "audit"
};

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (p in [0, 100]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

// -- Fingerprint ----------------------------------------------------------

/** FNV-1a over the bit patterns of the simulated results. */
class Fingerprint
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
fingerprintOf(const SimResult &r, const EpochFlightRecorder &flight)
{
    Fingerprint f;
    for (double v : {r.slowdown, r.actualSeconds, r.baselineSeconds,
                     r.avgColdFraction, r.finalColdFraction,
                     r.demotionBytesPerSec, r.promotionBytesPerSec,
                     r.monitorOverheadFraction}) {
        f.add(v);
    }
    const MigrationStats &m = r.migration;
    const PolicyStats &p = r.policy;
    const BadgerTrapStats &t = r.trap;
    const MachineStats &ms = r.machineStats;
    for (std::uint64_t v :
         {std::uint64_t{r.finalRssBytes}, std::uint64_t{r.finalFileBytes},
          r.auditViolations, m.hugeDemotions, m.baseDemotions,
          m.hugePromotions, m.basePromotions, m.bytesDemoted,
          m.bytesPromoted, m.failedAllocs, p.ticks, p.decisionPeriods,
          p.demotionsOrdered, p.promotionsOrdered, p.placementFailures,
          t.faults, t.weightedFaults, t.poisons, t.unpoisons,
          ms.accesses, ms.lineAccesses, ms.weightedAccesses,
          ms.weightedSlowAccesses, r.l1Tlb.hits, r.l1Tlb.misses,
          r.l2Tlb.hits, r.l2Tlb.misses, r.llc.hits, r.llc.misses,
          r.llc.writebacks, r.walker.walks4K, r.walker.walks2M,
          r.walker.tableAccesses, r.queue.issued,
          r.queue.bytesIssued, r.transactions.commits,
          r.transactions.aborts}) {
        f.add(v);
    }
    for (const EpochRow &row : flight.rows()) {
        f.add(static_cast<std::uint64_t>(row.time));
        for (double v : row.values) {
            f.add(v);
        }
    }
    return f.value();
}

// -- Spans ----------------------------------------------------------------

/** One traced interval; parent == 0 marks a root. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    double startUs = 0.0;
    double durUs = 0.0;
    std::uint64_t calls = 1; //!< profiler entries the span aggregates
    bool fromProfiler = false;
};

/** In-memory span store, written out once when the run ends. */
class SpanRecorder
{
  public:
    SpanRecorder() : origin_(Clock::now()) {}

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    std::uint64_t
    add(Span span)
    {
        span.id = spans_.size() + 1;
        spans_.push_back(std::move(span));
        return spans_.back().id;
    }

    /** Start a span now; close() fills in its duration. */
    std::uint64_t
    open(const char *name, std::uint64_t parent)
    {
        Span s;
        s.name = name;
        s.parent = parent;
        s.startUs = nowUs();
        return add(std::move(s));
    }

    void
    close(std::uint64_t id)
    {
        Span &s = spans_[id - 1];
        s.durUs = nowUs() - s.startUs;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the children's durations, per span index. */
    std::vector<double>
    selfUs() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            self[i] = spans_[i].durUs;
        }
        for (const Span &s : spans_) {
            if (s.parent != 0) {
                self[s.parent - 1] -= s.durUs;
            }
        }
        for (double &v : self) {
            v = std::max(v, 0.0);
        }
        return self;
    }

    bool
    writeChromeTrace(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out) {
            return false;
        }
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        char buf[512];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(
                buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                ",\"calls\":%" PRIu64 "}}%s\n",
                s.name.c_str(), s.fromProfiler ? "profiler" : "api",
                s.startUs, s.durUs, s.id, s.parent, s.calls,
                i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span around one public call; a no-op when untraced. */
class ApiSpan
{
  public:
    ApiSpan(SpanRecorder *rec, const char *name, std::uint64_t parent)
        : rec_(rec), id_(rec != nullptr ? rec->open(name, parent) : 0)
    {
    }

    ~ApiSpan()
    {
        if (rec_ != nullptr) {
            rec_->close(id_);
        }
    }

    ApiSpan(const ApiSpan &) = delete;
    ApiSpan &operator=(const ApiSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanRecorder *rec_;
    std::uint64_t id_;
};

/**
 * Per-epoch Profiler deltas as child spans.  The Profiler keeps only
 * per-node totals, so each node's delta becomes one span laid out
 * back to back under its parent in first-entry order; durations and
 * call counts are exact, placement inside the parent is not.
 */
class ProfilerDeltas
{
  public:
    void
    latch(const Profiler &profiler)
    {
        const std::vector<Profiler::Node> &nodes = profiler.nodes();
        prev_.resize(nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            prev_[i] = {nodes[i].count, nodes[i].totalNs};
        }
    }

    void
    emit(const Profiler &profiler, SpanRecorder &rec,
         std::uint64_t parent, double start_us)
    {
        prev_.resize(profiler.nodes().size(), {0, 0});
        emitChildren(profiler, 0, rec, parent, start_us);
        latch(profiler);
    }

  private:
    void
    emitChildren(const Profiler &profiler, int node, SpanRecorder &rec,
                 std::uint64_t parent, double start_us)
    {
        double cursor = start_us;
        for (int child : profiler.nodes()[node].children) {
            const Profiler::Node &n = profiler.nodes()[child];
            const std::size_t c = static_cast<std::size_t>(child);
            const std::uint64_t calls = n.count - prev_[c].first;
            if (calls == 0) {
                continue;
            }
            Span s;
            s.name = n.name;
            s.parent = parent;
            s.startUs = cursor;
            s.durUs =
                static_cast<double>(n.totalNs - prev_[c].second) / 1e3;
            s.calls = calls;
            s.fromProfiler = true;
            const double dur = s.durUs;
            const std::uint64_t id = rec.add(std::move(s));
            emitChildren(profiler, child, rec, id, cursor);
            cursor += dur;
        }
    }

    std::vector<std::pair<std::uint64_t, Ns>> prev_;
};

// -- One repeat -----------------------------------------------------------

/** One named result with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one simulation run yields to the benchmark. */
struct Repeat
{
    bool traced = false;
    double setupS = 0.0;
    double runS = 0.0;
    std::vector<double> epochMs;
    std::uint64_t fingerprint = 0;
    Count auditViolations = 0;
    Count ledgerViolations = 0;
    std::uint64_t timingRefs = 0;
    std::uint64_t profileRefs = 0;
    double slowdownPct = 0.0;
    double coldPct = 0.0;
    std::vector<Metric> layer; //!< per-layer metrics (traced only)
};

SimConfig
configFor(const Options &opt, unsigned shards, bool profiled)
{
    SimConfig config;
    config.seed = opt.seed;
    config.machine = tunedMachineConfig(opt.spec->app);
    config.policy = opt.spec->policy;
    config.shards = shards;
    config.duration = static_cast<Ns>(opt.simSeconds) * kNsPerSec;
    config.profilerEnabled = profiled;
    return config;
}

std::unique_ptr<Simulation>
makeSimulation(const Options &opt, unsigned shards, bool profiled)
{
    return std::make_unique<Simulation>(
        makeWorkload(opt.spec->app, opt.seed),
        configFor(opt, shards, profiled));
}

/** Per-layer metrics of a traced repeat, from its spans and stats. */
void
collectLayers(Repeat &rep, Simulation &sim, const SimResult &r,
              const SpanRecorder &rec, std::size_t first_span)
{
    std::map<std::string, double> dur;
    std::map<std::string, double> self;
    std::map<std::string, double> calls;
    const std::vector<double> selfUs = rec.selfUs();
    for (std::size_t i = first_span; i < rec.spans().size(); ++i) {
        const Span &s = rec.spans()[i];
        dur[s.name] += s.durUs / 1e6;
        self[s.name] += selfUs[i] / 1e6;
        calls[s.name] += static_cast<double>(s.calls);
    }
    std::map<std::string, double> m;
    for (const MetricSample &s : sim.metrics().snapshot()) {
        m[s.name] = s.value;
    }
    const double epochs = static_cast<double>(rep.epochMs.size());
    const auto add = [&rep](const char *name, double value,
                            const char *unit) {
        rep.layer.push_back({name, value, unit});
    };
    const auto count = [&add](const char *name, std::uint64_t value) {
        add(name, static_cast<double>(value), "count");
    };
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den > 0 ? static_cast<double>(num) /
                             static_cast<double>(den)
                       : 0.0;
    };

    add("sim.timing_stream_s", dur["timing_stream"], "s");
    add("sim.profile_stream_s", dur["profile_stream"], "s");
    add("sim.workload_advance_s", dur["workload_advance"], "s");
    add("sim.epoch_self_ms",
        epochs > 0 ? self["epoch"] * 1e3 / epochs : 0.0, "ms");

    const std::uint64_t migrated =
        r.migration.bytesDemoted + r.migration.bytesPromoted;
    const double migrated_gb = static_cast<double>(migrated) / (1u << 30);
    add("sys.migrate_s", dur["migrate"], "s");
    add("sys.migrate_calls", calls["migrate"], "count");
    add("sys.migrated_bytes", static_cast<double>(migrated), "bytes");
    add("sys.migrate_ms_per_gb",
        migrated > 0 ? dur["migrate"] * 1e3 / migrated_gb : 0.0, "ms/GB");
    count("sys.trap_faults", r.trap.faults);
    count("sys.trap_poisons", r.trap.poisons);
    add("sys.kstaled_scans", m["kstaled.scan_count"], "count");

    add("policy.tick_self_s", self["policy_tick"], "s");
    count("policy.demotions_ordered", r.policy.demotionsOrdered);
    count("policy.promotions_ordered", r.policy.promotionsOrdered);

    const MigrationQueueStats &q = sim.migrationQueue().stats();
    const TransactionStats &t = sim.transactionEngine().stats();
    add("migrate.queue_s", dur["migrate_queue"], "s");
    count("migrate.queue_issued", q.issued);
    add("migrate.queue_wait_epochs_mean", q.waitEpochsMean(), "epochs");
    count("migrate.txn_commits", t.commits);
    count("migrate.txn_aborts", t.aborts);
    add("migrate.txn_commit_ratio", ratio(t.commits, t.commits + t.aborts),
        "ratio");

    const LlcStats &llc = sim.machine().llc().stats();
    count("cache.llc_hits", llc.hits);
    count("cache.llc_misses", llc.misses);
    count("cache.llc_writebacks", llc.writebacks);
    add("cache.llc_hit_ratio", ratio(llc.hits, llc.hits + llc.misses),
        "ratio");

    count("tlb.l1_hits", r.l1Tlb.hits);
    count("tlb.l1_misses", r.l1Tlb.misses);
    count("tlb.l2_hits", r.l2Tlb.hits);
    count("tlb.l2_misses", r.l2Tlb.misses);
    count("tlb.invalidations",
          r.l1Tlb.invalidations + r.l2Tlb.invalidations);

    count("vm.walks_2m", r.walker.walks2M);
    count("vm.walks_4k", r.walker.walks4K);
    count("vm.table_accesses", r.walker.tableAccesses);

    add("mem.slow_reads", m["machine.memory.slow.reads"], "count");
    add("mem.slow_writes", m["machine.memory.slow.writes"], "count");
    add("mem.migration_bytes",
        m["machine.memory.slow.migration_bytes_in"] +
            m["machine.memory.slow.migration_bytes_out"],
        "bytes");
    add("mem.slow_wear", m["machine.memory.slow.total_wear"], "count");

    count("workload.timing_refs", rep.timingRefs);
    count("workload.profile_refs", rep.profileRefs);
}

/**
 * One simulation from construction to finishRun.  @p rec non-null
 * makes it a traced repeat: Profiler on, spans recorded.
 */
Repeat
runRepeat(const Options &opt, unsigned shards, SpanRecorder *rec)
{
    Repeat rep;
    rep.traced = rec != nullptr;
    const std::size_t first_span = rec != nullptr ? rec->spans().size() : 0;
    ApiSpan root(rec, "repeat", 0);
    const std::uint64_t parent = root.id();

    std::unique_ptr<Simulation> sim;
    {
        ApiSpan span(rec, "Simulation::Simulation", parent);
        const Clock::time_point t0 = Clock::now();
        sim = makeSimulation(opt, shards, rec != nullptr);
        rep.setupS = secondsSince(t0);
    }

    const Clock::time_point run_start = Clock::now();
    {
        ApiSpan span(rec, "startRun", parent);
        sim->startRun();
    }
    ProfilerDeltas deltas;
    deltas.latch(sim->profiler());
    while (!sim->runDone()) {
        ApiSpan span(rec, "stepEpoch", parent);
        const Clock::time_point t0 = Clock::now();
        sim->stepEpoch();
        rep.epochMs.push_back(secondsSince(t0) * 1e3);
        if (rec != nullptr) {
            deltas.emit(sim->profiler(), *rec, span.id(),
                        rec->spans()[span.id() - 1].startUs);
        }
    }
    SimResult result;
    {
        ApiSpan span(rec, "finishRun", parent);
        result = sim->finishRun();
    }
    rep.runS = secondsSince(run_start);

    {
        ApiSpan span(rec, "collect", parent);
        rep.fingerprint = fingerprintOf(result, sim->flightRecorder());
        rep.auditViolations = result.auditViolations;
        rep.ledgerViolations =
            sim->transactionEngine().stats().ledgerViolations;
        rep.slowdownPct = result.slowdown * 100.0;
        rep.coldPct = result.avgColdFraction * 100.0;
        // Reference counts: every timing reference is one Machine
        // access; the profile stream draws rate / profileWeight
        // references per epoch (as Simulation::startRun sizes it).
        const std::uint64_t epochs = rep.epochMs.size();
        rep.timingRefs = result.machineStats.accesses;
        const double epoch_sec =
            static_cast<double>(sim->config().epoch) / kNsPerSec;
        rep.profileRefs =
            epochs * static_cast<std::uint64_t>(
                         sim->workload().memRefRate() * epoch_sec /
                             static_cast<double>(sim->config().profileWeight) +
                         0.5);
        if (rec != nullptr) {
            collectLayers(rep, *sim, result, *rec, first_span);
        }
    }
    return rep;
}

// -- Probe ------------------------------------------------------------------

/**
 * Host ns per Workload::sample call on the same workload and seed:
 * the reference draw that no Profiler phase separates from the lane
 * work.  Median of a few rounds on a freshly set-up workload.
 */
double
sampleProbeNs(const Options &opt, SpanRecorder *rec)
{
    ApiSpan span(rec, "Workload::sample probe", 0);
    std::unique_ptr<Simulation> sim = makeSimulation(opt, 1, false);
    Workload &workload = sim->workload();
    Rng rng(opt.seed ^ 0x9e3779b97f4a7c15ULL);
    constexpr int kDraws = 1 << 20;
    std::vector<double> rounds;
    std::uint64_t sink = 0;
    for (int round = 0; round < 5; ++round) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kDraws; ++i) {
            sink += workload.sample(rng).addr;
        }
        rounds.push_back(secondsSince(t0) * 1e9 / kDraws);
    }
    if (sink == 1) {
        std::fprintf(stderr, "probe sink %" PRIu64 "\n", sink);
    }
    return median(rounds);
}

// -- Output -------------------------------------------------------------------

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), v,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

void
printAccuracy(const Options &opt, double slowdown_pct, double cold_pct)
{
    std::printf("model: %.3f%% avg cold at %.3f%% slowdown (simulated)\n",
                cold_pct, slowdown_pct);
    const PaperRef *ref = opt.spec->paper;
    if (ref == nullptr) {
        std::printf("accuracy: no paper reference for policy '%s' "
                    "(the paper evaluates Thermostat only)\n",
                    opt.spec->policy);
        return;
    }
    std::printf("accuracy: paper %s: %s; difference from the "
                "reference midpoint: %+.2f pp cold, %+.2f pp "
                "slowdown\n",
                ref->figure, ref->text, cold_pct - ref->coldPct,
                slowdown_pct - ref->slowdownPct);
    std::printf("accuracy: UNVALIDATED at this run length: %ld "
                "simulated seconds from a cold start with no warmup; "
                "the modelled TLB and LLC start empty (the paper "
                "measures after warmup)\n",
                opt.simSeconds);
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "                 [--sim-seconds T] [--trace-out FILE] "
                 "[--commit SHA]\n"
                 "                 [--corrupt fingerprint|audit]\n"
                 "workloads:");
    for (const WorkloadSpec &w : kWorkloads) {
        std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
        }
        const char *val = argv[++i];
        if (arg == "--workload") {
            for (const WorkloadSpec &w : kWorkloads) {
                if (w.name == std::string(val)) {
                    opt.spec = &w;
                }
            }
            if (opt.spec == nullptr) {
                usage();
            }
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val, nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::atof(val);
        } else if (arg == "--trace") {
            opt.trace = std::atoi(val) != 0;
        } else if (arg == "--sim-seconds") {
            opt.simSeconds = std::atol(val);
        } else if (arg == "--trace-out") {
            opt.traceOut = val;
        } else if (arg == "--commit") {
            opt.commit = val;
        } else if (arg == "--corrupt") {
            opt.corrupt = val;
            if (opt.corrupt != "fingerprint" && opt.corrupt != "audit") {
                usage();
            }
        } else {
            usage();
        }
    }
    if (opt.spec == nullptr || opt.seconds <= 0 || opt.simSeconds <= 0) {
        usage();
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned shards = std::min(opt.spec->maxShards, nproc);
    const SimConfig config = configFor(opt, shards, false);

    std::printf("meta: workload=%s app=%s policy=%s seed=%" PRIu64
                " shards=%u nproc=%u sim_seconds=%ld "
                "samples_per_epoch=%u trace=%d compiler=\"%s\" "
                "build_type=%s commit=%s\n",
                opt.spec->name, opt.spec->app, opt.spec->policy, opt.seed,
                shards, nproc, opt.simSeconds,
                config.samplesPerEpoch, opt.trace ? 1 : 0,
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                opt.commit.c_str());
    std::fflush(stdout);

    // Dedicated set-up repeats (at least 25 and about a second's
    // worth, at most 400); each run repeat adds one more.
    std::vector<double> setups;
    double setup_total = 0.0;
    if (!opt.trace) {
        while ((setups.size() < 25 || setup_total < 1.0) &&
               setups.size() < 400) {
            const Clock::time_point t0 = Clock::now();
            std::unique_ptr<Simulation> sim =
                makeSimulation(opt, shards, false);
            setups.push_back(secondsSince(t0));
            setup_total += setups.back();
        }
    }

    // Repeats: at least two (trace 1: one untraced + one traced),
    // then more while the next one is predicted to fit --seconds.
    SpanRecorder rec;
    std::vector<Repeat> reps;
    const Clock::time_point measure_start = Clock::now();
    for (;;) {
        const bool traced = opt.trace && reps.size() % 2 == 1;
        reps.push_back(runRepeat(opt, shards, traced ? &rec : nullptr));
        const double elapsed = secondsSince(measure_start);
        const double per = elapsed / static_cast<double>(reps.size());
        if (reps.size() >= 2 && (opt.trace ? reps.size() % 2 == 0 : true) &&
            elapsed + (opt.trace ? 2 : 1) * per > opt.seconds) {
            break;
        }
    }

    if (opt.corrupt == "fingerprint") {
        reps.back().fingerprint ^= 1;
    } else if (opt.corrupt == "audit") {
        reps.back().auditViolations += 1;
    }

    // Correctness: audit, ledger and determinism across repeats.
    std::uint64_t failed = 0;
    for (const Repeat &rep : reps) {
        const bool ok = rep.auditViolations == 0 &&
                        rep.ledgerViolations == 0 &&
                        rep.fingerprint == reps.front().fingerprint &&
                        rep.timingRefs ==
                            static_cast<std::uint64_t>(
                                config.samplesPerEpoch) *
                                rep.epochMs.size() &&
                        std::isfinite(rep.slowdownPct) &&
                        rep.coldPct >= 0 && rep.coldPct <= 100;
        if (!ok) {
            ++failed;
            std::printf("FAILED repeat (%s): audit=%llu ledger=%llu "
                        "fingerprint=%016" PRIx64 " vs %016" PRIx64 "\n",
                        rep.traced ? "traced" : "untraced",
                        static_cast<unsigned long long>(
                            rep.auditViolations),
                        static_cast<unsigned long long>(
                            rep.ledgerViolations),
                        rep.fingerprint, reps.front().fingerprint);
        }
    }
    const Repeat &first = reps.front();
    std::printf("repeats: %zu, fingerprint %016" PRIx64 "\n", reps.size(),
                first.fingerprint);
    printAccuracy(opt, first.slowdownPct, first.coldPct);

    std::vector<Metric> metrics;
    if (!opt.trace) {
        // Epoch percentiles are taken per repeat and then, like run_s,
        // the median over repeats, so a burst of host contention in
        // one repeat does not move them.
        std::vector<double> run_s;
        std::vector<double> p50;
        std::vector<double> p90;
        for (const Repeat &rep : reps) {
            setups.push_back(rep.setupS);
            run_s.push_back(rep.runS);
            p50.push_back(percentile(rep.epochMs, 50));
            p90.push_back(percentile(rep.epochMs, 90));
        }
        const double run = median(run_s);
        const std::size_t epochs = first.epochMs.size();
        std::printf("samples: %zu run repeats of %zu epochs each (p90 "
                    "leaves %zu beyond it), %zu set-ups\n",
                    run_s.size(), epochs, epochs - (epochs * 9 + 9) / 10,
                    setups.size());
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        metrics = {
            {"run_s", run, "s"},
            {"setup_s", median(setups), "s"},
            {"epoch_ms_p50", median(p50), "ms"},
            {"epoch_ms_p90", median(p90), "ms"},
            {"refs_per_s",
             static_cast<double>(first.timingRefs + first.profileRefs) / run,
             "1/s"},
            {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MB"},
            {"sim_slowdown_pct", first.slowdownPct, "%"},
            {"sim_cold_pct", first.coldPct, "%"},
        };
    } else {
        std::vector<double> untraced;
        std::vector<double> traced;
        const Repeat *traced_rep = nullptr;
        for (const Repeat &rep : reps) {
            (rep.traced ? traced : untraced).push_back(rep.runS);
            if (rep.traced) {
                traced_rep = &rep;
            }
        }
        // Per-layer values: the median over the traced repeats (every
        // traced repeat lists the same metrics in the same order).
        for (std::size_t i = 0; i < traced_rep->layer.size(); ++i) {
            std::vector<double> values;
            for (const Repeat &rep : reps) {
                if (rep.traced) {
                    values.push_back(rep.layer[i].value);
                }
            }
            metrics.push_back({traced_rep->layer[i].name, median(values),
                               traced_rep->layer[i].unit});
        }
        metrics.push_back(
            {"workload.sample_ns", sampleProbeNs(opt, &rec), "ns"});
        metrics.push_back(
            {"obs.trace_overhead_pct",
             (median(traced) / median(untraced) - 1.0) * 100.0, "%"});
        metrics.push_back({"obs.events_emitted",
                           static_cast<double>(rec.spans().size()), "count"});
        if (!rec.writeChromeTrace(opt.traceOut)) {
            std::fprintf(stderr, "cannot write %s\n", opt.traceOut.c_str());
            return 1;
        }
        std::printf("spans: %zu written to %s\n", rec.spans().size(),
                    opt.traceOut.c_str());
    }
    printResult(failed == 0, reps.size(), failed, metrics);
    return 0;
}
