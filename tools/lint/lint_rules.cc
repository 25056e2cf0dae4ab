#include "lint_rules.hh"

#include <fstream>
#include <tuple>

#include "lint_source.hh"

namespace thermostat
{
namespace lint
{

const std::vector<RuleInfo> &
rules()
{
    static const std::vector<RuleInfo> kRules = {
        {"ban-random-device",
         "std::random_device is nondeterministic; derive streams from "
         "the run seed via common/rng.hh",
         {{"src/", "bench/", "tools/"}, {}}},
        {"ban-c-random",
         "rand()/srand()/random()/drand48() share hidden global state; "
         "use common/rng.hh streams",
         {{"src/", "bench/", "tools/"}, {}}},
        {"ban-wall-clock",
         "wall-clock reads in the simulator break run reproducibility; "
         "use simulated Ns (obs/ may timestamp host phases)",
         {{"src/"}, {"src/obs/"}}},
        {"ban-naked-thread",
         "raw std::thread/std::async outside common/thread_pool; all "
         "parallelism goes through ThreadPool",
         {{"src/", "bench/", "tools/"}, {"src/common/thread_pool."}}},
        {"mutable-global",
         "mutable global/static-local state outside common/ breaks the "
         "one-Simulation-per-thread isolation contract",
         {{"src/"}, {"src/common/"}}},
        {"metric-name-style",
         "metric names are lowercase dot/slash-separated "
         "(component/name.leaf); see obs/metrics.hh",
         {{"src/", "bench/", "tools/"}, {}}},
        {"trace-category",
         "event-mask literals must use registered categories "
         "(sample,poison,classify,migrate,correct,phase,policy,"
         "all,none)",
         {{"src/", "bench/", "tools/"}, {}}},
        {"unsafe-c-api",
         "banned unbounded C string API (strcpy/strcat/sprintf/vsprintf/"
         "gets/strtok); use snprintf or std::string",
         {{}, {}}},
        {"hot-path-unordered-map",
         "std::unordered_map on simulator/bench paths; per-page tables "
         "use common/flat_map.hh (baseline cold paths with a "
         "justification)",
         {{"src/", "bench/"}, {}}},
        {"shard-unsynced-state",
         "mutable member in the sharded execution set without a "
         "concurrency classification; annotate TSTAT_GUARDED_BY, make "
         "it lane-indexed (name contains 'lane'), or mark it "
         "'// shard: <class>' (lane-local | serial-only | read-only | "
         "merge-barrier | idempotent)",
         {{"src/sim/machine.hh", "src/sim/simulation.hh",
           "src/tlb/tlb.hh", "src/cache/llc.hh",
           "src/sys/badger_trap.hh", "src/obs/access_sampler.hh",
           "src/vm/page_table.hh", "src/vm/page_walker.hh",
           "src/migrate/migration_queue.hh",
           "src/migrate/transaction_engine.hh",
           "src/workload/access_pattern.hh",
           "src/workload/workload.hh"},
          {}}},
        // --- cross-TU project rules (built on the project model) ---
        {"subsystem-layering",
         "#include edge violates the subsystem layering DAG "
         "(DESIGN.md section 7 table); lower layers must not reach "
         "upward",
         {{"src/"}, {}}},
        {"rng-stream-discipline",
         "RNG streams derive from the run seed (seed / fork() / "
         "splitMix64) with a project-unique salt documented by a "
         "'// rng: <purpose>' marker; Rng members in sharded files "
         "are lane-indexed or marked serial",
         {{"src/"}, {"src/common/"}}},
        {"metric-schema",
         "cross-TU metric/trace schema audit: duplicate absolute "
         "metric registrations, names outside the DESIGN.md catalog, "
         "EventKind rows missing from the DESIGN.md event table",
         {{"src/"}, {}}},
        {"merge-barrier-escape",
         "lane-held state (LaneState vectors, lane-local or "
         "merge-barrier members) read from a non-lane method that "
         "neither routes through syncDeviceState() nor carries a "
         "'// shard:' classification",
         {{"src/sim/machine.cc", "src/sim/simulation.cc"}, {}}},
        {"unused-baseline-entry",
         "baseline entry no longer matches any finding; prune it "
         "(warning normally, error under --ci so the baseline only "
         "shrinks)",
         {{}, {}}},
    };
    return kRules;
}

const RuleInfo *
findRule(const std::string &id)
{
    for (const RuleInfo &r : rules()) {
        if (id == r.id) {
            return &r;
        }
    }
    return nullptr;
}

bool
ruleApplies(const RuleInfo &rule, const std::string &rel)
{
    for (const std::string &prefix : rule.scope.exclude) {
        if (rel.rfind(prefix, 0) == 0) {
            return false;
        }
    }
    if (rule.scope.include.empty()) {
        return true;
    }
    for (const std::string &prefix : rule.scope.include) {
        if (rel.rfind(prefix, 0) == 0) {
            return true;
        }
    }
    return false;
}

bool
findingLess(const Finding &a, const Finding &b)
{
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
}

std::string
baselineKey(const std::string &rule, const std::string &file,
            const std::string &snippet)
{
    return rule + "|" + file + "|" + snippet;
}

bool
loadBaseline(const std::string &path, Baseline *out)
{
    std::ifstream in(path);
    if (!in) {
        return false;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string t = trim(line);
        if (t.empty() || t[0] == '#') {
            continue;
        }
        out->entries.emplace(t, lineno);
    }
    return true;
}

} // namespace lint
} // namespace thermostat
