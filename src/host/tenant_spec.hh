/**
 * @file
 * Tenant descriptions for the multi-tenant datacenter host.
 *
 * A consolidation experiment is specified as a list of tenants,
 * each naming a workload (one of the six cloud applications, the
 * redis-bursty variant, or a recorded trace via "trace:<path>"),
 * the tiering policy driving it and that policy's knobs.  The list
 * comes either from code (tests, benches) or from a small config
 * file handed to `thermostat_sim --tenants`:
 *
 *     # one tenant per line; '#' starts a comment
 *     id=web workload=web-search policy=thermostat target=3
 *     id=kv  workload=redis      policy=hotness cold-fraction=0.4
 *     id=bg  workload=cassandra  count=4
 *
 * Keys: id (required), workload (required), policy, target
 * (thermostat's tolerable-slowdown percent), cold-fraction (the
 * comparison engines' knob) and count (replica expansion: id
 * becomes id.0 .. id.N-1).
 *
 * Parsing is strict: unknown keys, malformed numbers, unknown
 * workload/policy names and duplicate ids (after expansion) are
 * errors with a line-numbered diagnostic, so the CLI can exit 2
 * with the same name-listing convention as --list-policies.
 */

#ifndef THERMOSTAT_HOST_TENANT_SPEC_HH
#define THERMOSTAT_HOST_TENANT_SPEC_HH

#include <string>
#include <vector>

namespace thermostat
{

/** One tenant (before replica expansion). */
struct TenantSpec
{
    std::string id;
    /** Workload name, "redis-bursty", or "trace:<path>". */
    std::string workload;
    std::string policy = "thermostat";
    /** Comparison engines: fraction of RSS placed cold. */
    double coldFraction = 0.5;
    /** Thermostat: tolerable slowdown percent (the SLO). */
    double targetPct = 3.0;
    /** Replicas this line expands into (>= 1). */
    unsigned count = 1;
};

/**
 * Whether @p name resolves to a tenant workload: a CLI workload
 * name (cloud apps + "redis-bursty") or a "trace:<path>" reference
 * with a non-empty path.  Trace files are opened at host
 * construction, not here.
 */
bool isTenantWorkloadName(const std::string &name);

/**
 * Parse a --tenants config text into specs.  On failure returns
 * false and sets @p error to a line-numbered diagnostic; for
 * unknown workload/policy names the diagnostic lists the known
 * names, one per line.
 */
bool parseTenantSpecs(const std::string &text,
                      std::vector<TenantSpec> *out,
                      std::string *error);

/** Parse a --tenants config file (reads then parses). */
bool parseTenantSpecFile(const std::string &path,
                         std::vector<TenantSpec> *out,
                         std::string *error);

/**
 * Expand count-replicated specs into single tenants (count=1):
 * a spec with count N becomes N copies named id.0 .. id.N-1.
 * Returns false (with @p error) when the expanded id list has
 * duplicates.
 */
bool expandTenantSpecs(const std::vector<TenantSpec> &in,
                       std::vector<TenantSpec> *out,
                       std::string *error);

} // namespace thermostat

#endif // THERMOSTAT_HOST_TENANT_SPEC_HH
