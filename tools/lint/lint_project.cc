#include "lint_project.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <sstream>

#include "lint_source.hh"

namespace thermostat
{
namespace lint
{

namespace
{

std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return out;
}

/** Subsystem directory of a root-relative path, "" when the file is
 * not inside a known src/<subsystem>/ directory. */
std::string
subsystemOf(const std::string &rel)
{
    if (rel.rfind("src/", 0) != 0) {
        return "";
    }
    const std::size_t slash = rel.find('/', 4);
    if (slash == std::string::npos) {
        return ""; // file directly under src/
    }
    const std::string sub = rel.substr(4, slash - 4);
    return layeringDag().count(sub) ? sub : "";
}

/** Subsystem a project include target lands in, "" if unknown. */
std::string
targetSubsystem(const std::string &target)
{
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos) {
        return "";
    }
    const std::string sub = target.substr(0, slash);
    return layeringDag().count(sub) ? sub : "";
}

void
addFinding(const std::string &rule, const std::string &file,
           const FactSite &at, const std::string &message,
           std::vector<Finding> *out)
{
    if (at.allows.count(rule)) {
        return;
    }
    out->push_back({file, at.line, rule, message, at.snippet});
}

// ---------------------------------------------------------------------------
// subsystem-layering
// ---------------------------------------------------------------------------

void
checkLayering(const std::vector<FileFacts> &files,
              std::vector<Finding> *out)
{
    const RuleInfo *rule = findRule("subsystem-layering");
    for (const FileFacts &file : files) {
        if (!ruleApplies(*rule, file.path)) {
            continue;
        }
        const std::string from = subsystemOf(file.path);
        if (from.empty()) {
            continue;
        }
        const std::set<std::string> &allowed =
            layeringDag().at(from);
        for (const IncludeFact &inc : file.includes) {
            const std::string to = targetSubsystem(inc.target);
            if (to.empty() || to == from || allowed.count(to)) {
                continue;
            }
            addFinding(rule->id, file.path, inc.at,
                       "layering violation: " + from + " -> " + to +
                           " is not an allowed DAG edge (" + from +
                           " may include: " +
                           [&allowed] {
                               std::string s;
                               for (const std::string &a : allowed) {
                                   s += s.empty() ? a : ", " + a;
                               }
                               return s.empty() ? std::string("none")
                                                : s;
                           }() +
                           ")",
                       out);
        }
    }
}

// ---------------------------------------------------------------------------
// rng-stream-discipline
// ---------------------------------------------------------------------------

void
checkRngDiscipline(const std::vector<FileFacts> &files,
                   std::vector<Finding> *out)
{
    const RuleInfo *rule = findRule("rng-stream-discipline");

    struct SaltSite
    {
        const FileFacts *file;
        const RngFact *fact;
    };
    std::map<std::uint64_t, std::vector<SaltSite>> saltSites;

    for (const FileFacts &file : files) {
        if (!ruleApplies(*rule, file.path)) {
            continue;
        }
        for (const RngFact &fact : file.rngs) {
            const std::string args = lowered(fact.args);
            const bool derived =
                args.find("seed") != std::string::npos ||
                args.find("rng") != std::string::npos ||
                args.find("fork(") != std::string::npos ||
                args.find("splitmix64") != std::string::npos;
            if (fact.construction && !derived &&
                !fact.at.rngMarked) {
                addFinding(rule->id, file.path, fact.at,
                           "RNG stream not derived from the run "
                           "seed (pass seed/rng/fork()/splitMix64, "
                           "or document with '// rng: <purpose>')",
                           out);
            }
            if (fact.hasSalt) {
                if (!fact.at.rngMarked) {
                    addFinding(rule->id, file.path, fact.at,
                               "seed salt without a "
                               "'// rng: <purpose>' marker naming "
                               "the stream it creates",
                               out);
                }
                saltSites[fact.salt].push_back({&file, &fact});
            }
        }

        // Rng-typed members in the sharded execution set must be
        // lane-indexed or explicitly serial.
        for (const MemberFact &member : file.members) {
            if (!member.rngTyped || member.laneNamed) {
                continue;
            }
            if (lowered(member.classification).find("serial") !=
                std::string::npos) {
                continue;
            }
            addFinding(rule->id, file.path, member.at,
                       "Rng member '" + member.name +
                           "' in a sharded file is neither "
                           "lane-indexed nor marked "
                           "'// shard: serial-only'",
                       out);
        }
    }

    for (const auto &entry : saltSites) {
        // Distinct source locations sharing one salt value collide.
        std::set<std::string> locations;
        for (const SaltSite &site : entry.second) {
            std::ostringstream loc;
            loc << site.file->path << ":" << site.fact->at.line;
            locations.insert(loc.str());
        }
        if (locations.size() < 2) {
            continue;
        }
        std::string all;
        for (const std::string &loc : locations) {
            all += all.empty() ? loc : ", " + loc;
        }
        std::set<std::string> reported;
        for (const SaltSite &site : entry.second) {
            std::ostringstream loc;
            loc << site.file->path << ":" << site.fact->at.line;
            if (!reported.insert(loc.str()).second) {
                continue;
            }
            std::ostringstream value;
            value << std::hex << entry.first;
            addFinding(rule->id, site.file->path, site.fact->at,
                       "seed salt 0x" + value.str() +
                           " is reused by multiple streams (" +
                           all + "); salts must be project-unique",
                       out);
        }
    }
}

// ---------------------------------------------------------------------------
// metric-schema
// ---------------------------------------------------------------------------

bool
inCatalog(const std::string &literal,
          const std::set<std::string> &roots)
{
    for (const std::string &root : roots) {
        if (literal == root ||
            literal.rfind(root + "/", 0) == 0 ||
            literal.rfind(root + ".", 0) == 0) {
            return true;
        }
    }
    return false;
}

void
checkMetricSchema(const std::vector<FileFacts> &files,
                  const DesignCatalog &catalog,
                  std::vector<Finding> *out)
{
    const RuleInfo *rule = findRule("metric-schema");

    struct MetricSite
    {
        const FileFacts *file;
        const MetricFact *fact;
    };
    std::map<std::string, std::vector<MetricSite>> absolute;
    bool haveEnumerators = false;

    for (const FileFacts &file : files) {
        if (!file.eventEnumerators.empty()) {
            haveEnumerators = true;
        }
        if (!ruleApplies(*rule, file.path)) {
            continue;
        }
        for (const MetricFact &fact : file.metrics) {
            if (fact.literal.empty() || fact.literal[0] == '.') {
                continue; // suffix appended to a runtime prefix
            }
            // A bare single-segment literal at a callback site is a
            // leaf composed through a helper (tenantMetricName and
            // friends), not an absolute name; only separators or an
            // explicit registerMetrics prefix make it schema-level.
            const bool absoluteName =
                fact.literal.find('/') != std::string::npos ||
                fact.literal.find('.') != std::string::npos;
            if (!absoluteName && !fact.prefixArg) {
                continue;
            }
            if (!fact.prefixArg) {
                absolute[fact.literal].push_back({&file, &fact});
            }
            if (catalog.loaded &&
                !inCatalog(fact.literal, catalog.metricRoots)) {
                addFinding(rule->id, file.path, fact.at,
                           "metric \"" + fact.literal +
                               "\" is outside the DESIGN.md metric "
                               "catalog (add a catalog row or fix "
                               "the name)",
                           out);
            }
        }
    }

    for (const auto &entry : absolute) {
        std::set<std::string> locations;
        for (const MetricSite &site : entry.second) {
            std::ostringstream loc;
            loc << site.file->path << ":" << site.fact->at.line;
            locations.insert(loc.str());
        }
        if (locations.size() < 2) {
            continue;
        }
        std::string all;
        for (const std::string &loc : locations) {
            all += all.empty() ? loc : ", " + loc;
        }
        std::set<std::string> reported;
        for (const MetricSite &site : entry.second) {
            std::ostringstream loc;
            loc << site.file->path << ":" << site.fact->at.line;
            if (!reported.insert(loc.str()).second) {
                continue;
            }
            addFinding(rule->id, site.file->path, site.fact->at,
                       "metric \"" + entry.first +
                           "\" registered at multiple sites (" +
                           all + ")",
                       out);
        }
    }

    if (!catalog.loaded) {
        return;
    }
    for (const FileFacts &file : files) {
        if (!ruleApplies(*rule, file.path)) {
            continue;
        }
        for (const EventCategoryFact &fact : file.eventCategories) {
            const auto row = catalog.eventCategories.find(fact.kind);
            if (row == catalog.eventCategories.end() ||
                row->second == fact.category) {
                continue;
            }
            addFinding(rule->id, file.path, fact.at,
                       "EventKind::" + fact.kind + " is in category '" +
                           fact.category +
                           "' in eventCategory() but '" + row->second +
                           "' in the DESIGN.md event catalog",
                       out);
        }
    }
    if (haveEnumerators) {
        // Authoritative mode: audit the enum definition itself.
        for (const FileFacts &file : files) {
            for (std::size_t i = 0;
                 i < file.eventEnumerators.size(); ++i) {
                const std::string &kind =
                    file.eventEnumerators[i];
                if (catalog.eventKinds.count(kind)) {
                    continue;
                }
                FactSite at;
                at.line = 1;
                at.snippet = "enum class EventKind { ... " + kind +
                             " ... }";
                addFinding(rule->id, file.path, at,
                           "EventKind::" + kind +
                               " is missing from the DESIGN.md "
                               "event catalog",
                           out);
            }
        }
    } else {
        // Fixture mode: no enum in the scanned set, audit uses.
        for (const FileFacts &file : files) {
            if (!ruleApplies(*rule, file.path)) {
                continue;
            }
            for (const EventUseFact &use : file.events) {
                if (catalog.eventKinds.count(use.kind)) {
                    continue;
                }
                addFinding(rule->id, file.path, use.at,
                           "EventKind::" + use.kind +
                               " is missing from the DESIGN.md "
                               "event catalog",
                           out);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// merge-barrier-escape
// ---------------------------------------------------------------------------

void
checkMergeBarrier(const std::vector<FileFacts> &files,
                  std::vector<Finding> *out)
{
    const RuleInfo *rule = findRule("merge-barrier-escape");

    // Lane-held members, collected from every sharded header in the
    // scanned set: anything classified lane-local or merge-barrier
    // is only coherent inside a lane or after syncDeviceState().
    std::set<std::string> laneHeld;
    for (const FileFacts &file : files) {
        for (const MemberFact &member : file.members) {
            const std::string cls = lowered(member.classification);
            if (cls.find("lane-local") != std::string::npos ||
                cls.find("merge-barrier") != std::string::npos) {
                laneHeld.insert(member.name);
            }
        }
    }

    for (const FileFacts &file : files) {
        if (!ruleApplies(*rule, file.path)) {
            continue;
        }
        std::set<std::string> reported; // method|token
        for (const TokenRefFact &ref : file.tokenRefs) {
            const bool held =
                laneHeld.count(ref.token) ||
                lowered(ref.token).find("lane") !=
                    std::string::npos;
            if (!held) {
                continue;
            }
            const MethodFact *method = nullptr;
            for (const MethodFact &m : file.methods) {
                if (ref.at.line >= m.sigLine &&
                    ref.at.line <= m.bodyEnd) {
                    method = &m;
                    break;
                }
            }
            if (!method || method->synced || method->laneScoped ||
                method->blessed) {
                continue;
            }
            if (ref.at.shardMarked ||
                ref.at.allows.count(rule->id)) {
                continue;
            }
            if (!reported.insert(method->name + "|" + ref.token)
                     .second) {
                continue;
            }
            addFinding(rule->id, file.path, ref.at,
                       "lane-held state '" + ref.token +
                           "' read in non-lane method '" +
                           method->name +
                           "()' without syncDeviceState() or a "
                           "'// shard:' classification",
                       out);
        }
    }
}

} // namespace

DesignCatalog
loadDesignCatalog(const std::string &designPath)
{
    DesignCatalog catalog;
    std::ifstream in(designPath);
    if (!in) {
        return catalog;
    }
    static const std::regex kTick(R"(`([A-Za-z][\w./]*)`)");
    std::string line;
    enum class Block { None, Metric, Event } block = Block::None;
    bool sawMarker = false;
    while (std::getline(in, line)) {
        if (line.find("<!-- lint:metric-catalog -->") !=
            std::string::npos) {
            block = Block::Metric;
            sawMarker = true;
            continue;
        }
        if (line.find("<!-- lint:event-catalog -->") !=
            std::string::npos) {
            block = Block::Event;
            sawMarker = true;
            continue;
        }
        if (line.find("<!-- /lint:") != std::string::npos) {
            block = Block::None;
            continue;
        }
        if (block == Block::None) {
            continue;
        }
        // An event row's category is its last cell.
        const std::size_t end = line.find_last_of('|');
        const std::size_t start =
            end == std::string::npos || end == 0
                ? std::string::npos
                : line.find_last_of('|', end - 1);
        const std::string category =
            start == std::string::npos
                ? ""
                : trim(line.substr(start + 1, end - start - 1));
        auto begin =
            std::sregex_iterator(line.begin(), line.end(), kTick);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            if (block == Block::Metric) {
                catalog.metricRoots.insert((*it)[1]);
            } else {
                catalog.eventKinds.insert((*it)[1]);
                catalog.eventCategories[(*it)[1]] = category;
            }
        }
    }
    catalog.loaded = sawMarker;
    return catalog;
}

const std::map<std::string, std::set<std::string>> &
layeringDag()
{
    // Allowed #include edges between src/ subsystems.  Mirrors the
    // DAG table in DESIGN.md section 7 -- update both together.
    static const std::map<std::string, std::set<std::string>> kDag =
        {
            {"common", {}},
            {"obs", {"common"}},
            {"mem", {"common", "obs"}},
            {"vm", {"common", "obs", "mem"}},
            {"tlb", {"common", "obs"}},
            {"cache", {"common", "obs"}},
            {"sys",
             {"common", "obs", "mem", "vm", "tlb", "cache"}},
            {"workload", {"common", "vm"}},
            {"core", {"common", "sys", "vm"}},
            {"migrate",
             {"common", "obs", "mem", "sys", "vm"}},
            {"policy",
             {"common", "obs", "core", "migrate", "sys", "vm",
              "workload"}},
            {"sim",
             {"common", "obs", "mem", "vm", "tlb", "cache", "sys",
              "workload", "core", "migrate", "policy"}},
            {"host",
             {"common", "obs", "mem", "vm", "tlb", "cache", "sys",
              "workload", "core", "migrate", "policy", "sim"}},
        };
    return kDag;
}

void
runProjectRules(const std::vector<FileFacts> &files,
                const DesignCatalog &catalog,
                std::vector<Finding> *out)
{
    checkLayering(files, out);
    checkRngDiscipline(files, out);
    checkMetricSchema(files, catalog, out);
    checkMergeBarrier(files, out);
}

} // namespace lint
} // namespace thermostat
