/**
 * @file
 * Cross-TU project passes of thermostat_lint.  Consumes the
 * FileFacts produced by the per-file scanner and evaluates the
 * rules that need a whole-project view:
 *
 *  - subsystem-layering:     #include edges vs the layering DAG
 *  - rng-stream-discipline:  seed derivation, salt uniqueness,
 *                            sharded Rng members
 *  - metric-schema:          duplicate registrations, DESIGN.md
 *                            metric/event catalog drift (names, and
 *                            each event's category)
 *  - merge-barrier-escape:   lane-held state read outside lane or
 *                            merge-barrier context
 */

#ifndef THERMOSTAT_LINT_PROJECT_HH
#define THERMOSTAT_LINT_PROJECT_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint_rules.hh"
#include "lint_scanner.hh"

namespace thermostat
{
namespace lint
{

/** Metric/event name catalogs extracted from DESIGN.md. */
struct DesignCatalog
{
    bool loaded = false; //!< DESIGN.md with markers was found
    std::set<std::string> metricRoots;
    std::set<std::string> eventKinds;
    /** Each event row's kinds -> the row's category column. */
    std::map<std::string, std::string> eventCategories;
};

/**
 * Parse the `lint:metric-catalog` / `lint:event-catalog` marker
 * blocks out of @p designPath.  A missing file or missing markers
 * yields an unloaded catalog, which disables the drift checks (the
 * fixtures tree carries its own DESIGN.md).
 */
DesignCatalog loadDesignCatalog(const std::string &designPath);

/** The subsystem layering DAG: subsystem -> allowed include
 * targets (self-edges are implicitly allowed). */
const std::map<std::string, std::set<std::string>> &layeringDag();

/** Run every project rule over @p files and append findings. */
void runProjectRules(const std::vector<FileFacts> &files,
                     const DesignCatalog &catalog,
                     std::vector<Finding> *out);

} // namespace lint
} // namespace thermostat

#endif // THERMOSTAT_LINT_PROJECT_HH
