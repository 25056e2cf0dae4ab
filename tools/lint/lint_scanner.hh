/**
 * @file
 * Per-file pass of thermostat_lint: runs the line-oriented rules and
 * extracts the symbol facts (includes, metric/trace registrations,
 * RNG constructions, sharded-member declarations, method spans and
 * member references) the cross-TU project passes consume.
 */

#ifndef THERMOSTAT_LINT_SCANNER_HH
#define THERMOSTAT_LINT_SCANNER_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "lint_rules.hh"

namespace thermostat
{
namespace lint
{

/** Location + suppression context shared by every fact kind. */
struct FactSite
{
    std::size_t line = 0;
    std::string snippet;             //!< trimmed raw source line
    std::set<std::string> allows;    //!< lint:allow(<rule>) in reach
    bool shardMarked = false;        //!< `// shard:` on line or above
    bool rngMarked = false;          //!< `// rng:` on line or above
};

/** `#include "subsystem/header.hh"` (project-style quotes only). */
struct IncludeFact
{
    FactSite at;
    std::string target; //!< e.g. "policy/tiering_policy.hh"
};

/** Metric literal at a registration site. */
struct MetricFact
{
    FactSite at;
    std::string literal;
    bool prefixArg = false; //!< literal prefix at registerMetrics()
};

/** `EventKind::X` use outside obs/event_trace.*. */
struct EventUseFact
{
    FactSite at;
    std::string kind;
};

/** One `case EventKind::X:` of eventCategory() and its category. */
struct EventCategoryFact
{
    FactSite at;
    std::string kind;
    std::string category; //!< `kEvSample` -> "sample"
};

/** RNG stream construction or seed-salt derivation. */
struct RngFact
{
    FactSite at;
    std::string args;        //!< constructor/derivation expression
    std::uint64_t salt = 0;  //!< literal salt value when hasSalt
    bool hasSalt = false;
    bool construction = false; //!< an Rng was built here
};

/** Data-member declaration in a sharded-execution-set header. */
struct MemberFact
{
    FactSite at;
    std::string name;           //!< trailing-underscore member
    std::string classification; //!< `// shard:` text, "" if none
    bool laneNamed = false;
    bool guarded = false;       //!< TSTAT_GUARDED_BY present
    bool rngTyped = false;      //!< declared type is Rng
};

/** Method definition span in a merge-barrier-scoped .cc file. */
struct MethodFact
{
    std::string name;
    std::size_t sigLine = 0;  //!< line of `Class::name(`
    std::size_t bodyEnd = 0;  //!< line of the closing `}`
    bool laneScoped = false;  //!< 'lane' in signature or laneOf()
    bool synced = false;      //!< mentions syncDeviceState
    bool blessed = false;     //!< `// shard:` near the definition
};

/** Member-convention token (`foo_`) referenced inside a method. */
struct TokenRefFact
{
    FactSite at;
    std::string token;
};

struct FileFacts
{
    std::string path; //!< root-relative
    std::vector<Finding> lineFindings; //!< pre-baseline
    std::vector<IncludeFact> includes;
    std::vector<MetricFact> metrics;
    std::vector<EventUseFact> events;
    std::vector<std::string> eventEnumerators; //!< event_trace.hh
    std::vector<EventCategoryFact> eventCategories; //!< eventCategory()
    std::vector<RngFact> rngs;
    std::vector<MemberFact> members;
    std::vector<MethodFact> methods;
    std::vector<TokenRefFact> tokenRefs;
};

/** Run the per-file pass over @p text for root-relative @p rel. */
FileFacts scanFile(const std::string &rel, const std::string &text);

} // namespace lint
} // namespace thermostat

#endif // THERMOSTAT_LINT_SCANNER_HH
