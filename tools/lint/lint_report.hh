/**
 * @file
 * Output renderers for thermostat_lint: human text, the machine
 * JSON report consumed by tests/tooling, and SARIF 2.1.0 for CI
 * inline annotations (github/codeql-action/upload-sarif).
 */

#ifndef THERMOSTAT_LINT_REPORT_HH
#define THERMOSTAT_LINT_REPORT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "lint_rules.hh"

namespace thermostat
{
namespace lint
{

enum class Format
{
    Text,
    Json,
    Sarif,
};

/** Everything a renderer needs about one run. */
struct Report
{
    std::vector<Finding> findings; //!< post-baseline, sorted
    /** Unused baseline entries: key + 1-based baseline line. */
    std::vector<std::pair<std::string, std::size_t>> unusedBaseline;
    std::size_t filesScanned = 0;
    std::size_t baselined = 0; //!< findings the baseline absorbed
    bool ci = false; //!< unused baseline entries were promoted
};

std::string jsonEscape(const std::string &s);

std::string renderText(const Report &report);
std::string renderJson(const Report &report);
std::string renderSarif(const Report &report);

std::string render(const Report &report, Format format);

} // namespace lint
} // namespace thermostat

#endif // THERMOSTAT_LINT_REPORT_HH
