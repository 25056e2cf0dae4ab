/**
 * @file
 * End-to-end tests for tools/lint/thermostat_lint: every rule class
 * (line-local and cross-TU) fires on its seeded fixture, allowlisted
 * paths and inline/baseline suppressions stay quiet, the tokenizer
 * ignores raw strings and line continuations, the JSON and SARIF
 * reports keep their schemas, an unknown option is a usage error,
 * and the repository itself lints clean under --ci.
 *
 * Fixtures live under tests/lint_fixtures/, which the lint tool's
 * tree walk skips so the deliberate violations never pollute a real
 * run; the tests pass fixture paths explicitly.  The fixture tree
 * carries its own DESIGN.md so the metric/event catalog checks
 * resolve against a pinned catalog.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "obs/json.hh"

#ifndef THERMOSTAT_LINT_BIN
#error "build must define THERMOSTAT_LINT_BIN"
#endif
#ifndef THERMOSTAT_LINT_FIXTURES
#error "build must define THERMOSTAT_LINT_FIXTURES"
#endif
#ifndef THERMOSTAT_REPO_ROOT
#error "build must define THERMOSTAT_REPO_ROOT"
#endif

namespace
{

using thermostat::JsonValue;
using thermostat::parseJson;

struct LintResult
{
    int exitCode = -1;
    std::string output;
};

/** Run the lint binary with @p args, capturing stdout+stderr. */
LintResult
runLint(const std::string &args)
{
    const std::string cmd =
        std::string("'") + THERMOSTAT_LINT_BIN + "' " + args + " 2>&1";
    std::FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return {};
    }
    LintResult result;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
        result.output.append(buf, n);
    }
    const int status = pclose(pipe);
    result.exitCode =
        WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

std::string
fixturesRoot()
{
    return std::string("--root '") + THERMOSTAT_LINT_FIXTURES + "' ";
}

} // namespace

// Each rule class must make the lint exit non-zero on its seeded
// violation, and name the rule in the diagnostic.  The last six
// rows exercise the cross-TU project rules.
TEST(Lint, EachRuleClassFiresOnSeededViolation)
{
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"src/rule_random_device.cc", "ban-random-device"},
        {"src/rule_c_random.cc", "ban-c-random"},
        {"src/rule_wall_clock.cc", "ban-wall-clock"},
        {"src/rule_naked_thread.cc", "ban-naked-thread"},
        {"src/rule_mutable_global.cc", "mutable-global"},
        {"src/rule_metric_name.cc", "metric-name-style"},
        {"src/rule_trace_category.cc", "trace-category"},
        {"src/rule_unsafe_c_api.cc", "unsafe-c-api"},
        {"src/rule_unordered_map.cc", "hot-path-unordered-map"},
        {"src/sim/machine.hh", "shard-unsynced-state"},
        {"src/mem/layering_bad.cc", "subsystem-layering"},
        {"src/rule_rng_underived.cc", "rng-stream-discipline"},
        {"src/rule_metric_catalog.cc", "metric-schema"},
        {"src/rule_event_catalog.cc", "metric-schema"},
        {"src/rule_event_category.cc", "metric-schema"},
        {"src/sim/machine.cc", "merge-barrier-escape"},
    };
    for (const auto &[file, rule] : cases) {
        const LintResult r = runLint(fixturesRoot() + file);
        EXPECT_EQ(r.exitCode, 1)
            << file << " should fail lint\n" << r.output;
        EXPECT_NE(r.output.find("[" + rule + "]"), std::string::npos)
            << file << " should report " << rule << "\n" << r.output;
    }
}

// Cross-TU checks that need two translation units scanned together:
// a reused seed salt and a duplicate absolute metric registration.
TEST(Lint, CrossTuRulesSeeBothTranslationUnits)
{
    const LintResult salts = runLint(
        fixturesRoot() + "src/rng_salt_a.cc src/rng_salt_b.cc");
    EXPECT_EQ(salts.exitCode, 1) << salts.output;
    EXPECT_NE(salts.output.find("salt 0xabc123 is reused"),
              std::string::npos)
        << salts.output;
    EXPECT_NE(salts.output.find("rng_salt_a.cc"), std::string::npos);
    EXPECT_NE(salts.output.find("rng_salt_b.cc"), std::string::npos);

    // Each half alone is clean: its salt is unique in isolation.
    EXPECT_EQ(runLint(fixturesRoot() + "src/rng_salt_a.cc").exitCode,
              0);

    const LintResult dup =
        runLint(fixturesRoot() +
                "src/rule_metric_schema_a.cc "
                "src/rule_metric_schema_b.cc");
    EXPECT_EQ(dup.exitCode, 1) << dup.output;
    EXPECT_NE(
        dup.output.find("registered at multiple sites"),
        std::string::npos)
        << dup.output;
    EXPECT_EQ(
        runLint(fixturesRoot() + "src/rule_metric_schema_a.cc")
            .exitCode,
        0);
}

// The merge-barrier rule accepts all three escape routes: lane
// dispatch via laneOf(), syncDeviceState() routing, and a
// '// shard:' blessing on the definition.
TEST(Lint, MergeBarrierAcceptedEscapesAreQuiet)
{
    const LintResult r =
        runLint(fixturesRoot() + "src/sim/simulation.cc");
    EXPECT_EQ(r.exitCode, 0) << r.output;

    // And the seeded violation file reports exactly one finding --
    // the blessed/synced/lane-scoped methods in it stay quiet.
    const LintResult bad =
        runLint(fixturesRoot() + "--json src/sim/machine.cc");
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(bad.output, &doc, &error)) << error;
    ASSERT_TRUE(doc.member("findings").isArray());
    EXPECT_EQ(doc.member("findings").elements().size(), 1u)
        << bad.output;
}

// The whole-file tokenizer: raw string literals (plain and custom
// delimiter) and backslash line-continuations in comments and
// string literals never leak banned constructs into the code view.
TEST(Lint, TokenizerIgnoresRawStringsAndContinuations)
{
    for (const char *file : {"src/tokenizer_raw_string.cc",
                             "src/tokenizer_continuation.cc"}) {
        const LintResult r = runLint(fixturesRoot() + file);
        EXPECT_EQ(r.exitCode, 0)
            << file << " should lint clean\n" << r.output;
    }
}

// Path scoping: obs/ may read the host clock, common/ may own
// mutable globals; neither fixture may produce a finding.
TEST(Lint, AllowlistedPathsAreClean)
{
    for (const char *file :
         {"src/obs/wall_clock_ok.cc", "src/common/static_ok.cc"}) {
        const LintResult r = runLint(fixturesRoot() + file);
        EXPECT_EQ(r.exitCode, 0)
            << file << " should lint clean\n" << r.output;
        EXPECT_NE(r.output.find("0 findings"), std::string::npos)
            << r.output;
    }
}

// shard-unsynced-state accepts every classification vocabulary:
// TSTAT_GUARDED_BY, lane-indexed names, `// shard:` markers (same
// and preceding line), const members, and lint:allow.
TEST(Lint, ShardStateClassificationsAreQuiet)
{
    const LintResult r =
        runLint(fixturesRoot() + "src/sim/simulation.hh");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("0 findings"), std::string::npos)
        << r.output;
}

// A `// shard:` marker trailing one member's declaration classifies
// that member only: an unmarked member on the next line still fires.
TEST(Lint, TrailingMarkerClassifiesOnlyItsOwnMember)
{
    const LintResult r =
        runLint(fixturesRoot() + "src/sim/machine.hh");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("member 'cursor_' is unclassified"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("member 'hits_' is unclassified"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("member 'stride_'"), std::string::npos)
        << r.output;
}

// Inline `lint:allow(<rule>)` markers suppress on the same line and
// on the immediately preceding comment line.
TEST(Lint, InlineSuppressionSilencesBothPlacements)
{
    const LintResult r = runLint(fixturesRoot() + "src/suppressed_ok.cc");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("0 findings"), std::string::npos)
        << r.output;
}

// A baseline entry absorbs its finding (exit 0, counted as
// baselined); without the baseline the same file fails.
TEST(Lint, BaselineAbsorbsRecordedFinding)
{
    const std::string baseline = std::string("--baseline '") +
                                 THERMOSTAT_LINT_FIXTURES +
                                 "/baseline.txt' ";
    const LintResult with =
        runLint(fixturesRoot() + baseline + "src/baselined.cc");
    EXPECT_EQ(with.exitCode, 0) << with.output;
    EXPECT_NE(with.output.find("1 baselined"), std::string::npos)
        << with.output;

    const LintResult without =
        runLint(fixturesRoot() + "src/baselined.cc");
    EXPECT_EQ(without.exitCode, 1) << without.output;
}

// Stale baseline entries are reported so the baseline only shrinks:
// a warning by default, a fatal unused-baseline-entry finding (with
// the entry's line in the baseline file) under --ci.
TEST(Lint, UnusedBaselineEntriesAreFlagged)
{
    const std::string baseline = std::string("--baseline '") +
                                 THERMOSTAT_LINT_FIXTURES +
                                 "/baseline.txt' ";
    const LintResult r =
        runLint(fixturesRoot() + baseline + "src/obs");
    EXPECT_EQ(r.exitCode, 0) << r.output; // warning only
    EXPECT_NE(r.output.find("unused baseline entry"),
              std::string::npos)
        << r.output;

    const LintResult ci =
        runLint(fixturesRoot() + baseline + "--ci src/obs");
    EXPECT_EQ(ci.exitCode, 1) << ci.output;
    EXPECT_NE(ci.output.find("[unused-baseline-entry]"),
              std::string::npos)
        << ci.output;
}

// The machine-readable report parses as JSON and keeps its schema:
// version, counters, and per-finding keys.
TEST(Lint, JsonReportSchema)
{
    const LintResult r =
        runLint(fixturesRoot() + "--json src/rule_unordered_map.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(r.output, &doc, &error))
        << error << "\n" << r.output;
    EXPECT_EQ(doc.member("version").asNumber(), 3.0);
    EXPECT_EQ(doc.member("checkedFiles").asNumber(), 1.0);
    EXPECT_EQ(doc.member("baselinedFindings").asNumber(), 0.0);
    ASSERT_TRUE(doc.member("findings").isArray());
    ASSERT_FALSE(doc.member("findings").elements().empty());
    const JsonValue &finding = doc.member("findings").elements()[0];
    EXPECT_EQ(finding.member("rule").asString(),
              "hot-path-unordered-map");
    for (const char *key :
         {"file", "line", "message", "snippet"}) {
        EXPECT_TRUE(finding.hasMember(key)) << key;
    }
    EXPECT_TRUE(doc.member("unusedBaselineEntries").isArray());
}

// The SARIF export parses as JSON and carries the SARIF 2.1.0
// skeleton CI's upload-sarif step expects: schema/version, one run
// with driver name + rule metadata, and results with ruleId, level,
// message and a physical location per finding.
TEST(Lint, SarifReportValidates)
{
    const LintResult r = runLint(
        fixturesRoot() + "--format sarif src/rule_unordered_map.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(r.output, &doc, &error))
        << error << "\n" << r.output;
    EXPECT_NE(doc.member("$schema").asString().find("sarif-2.1.0"),
              std::string::npos);
    EXPECT_EQ(doc.member("version").asString(), "2.1.0");
    ASSERT_TRUE(doc.member("runs").isArray());
    ASSERT_EQ(doc.member("runs").elements().size(), 1u);
    const JsonValue &run = doc.member("runs").elements()[0];
    const JsonValue &driver =
        run.member("tool").member("driver");
    EXPECT_EQ(driver.member("name").asString(), "thermostat_lint");
    ASSERT_TRUE(driver.member("rules").isArray());
    EXPECT_GE(driver.member("rules").elements().size(), 15u);
    for (const JsonValue &rule : driver.member("rules").elements()) {
        EXPECT_TRUE(rule.hasMember("id"));
        EXPECT_TRUE(
            rule.member("shortDescription").hasMember("text"));
    }
    ASSERT_TRUE(run.member("results").isArray());
    ASSERT_FALSE(run.member("results").elements().empty());
    const JsonValue &result = run.member("results").elements()[0];
    EXPECT_EQ(result.member("ruleId").asString(),
              "hot-path-unordered-map");
    EXPECT_EQ(result.member("level").asString(), "error");
    ASSERT_TRUE(result.member("locations").isArray());
    const JsonValue &loc =
        result.member("locations").elements()[0].member(
            "physicalLocation");
    EXPECT_EQ(loc.member("artifactLocation").member("uri")
                  .asString(),
              "src/rule_unordered_map.cc");
    EXPECT_GT(loc.member("region").member("startLine").asNumber(),
              0.0);
}

// An option the tool does not know prints the usage text and exits
// 2, the environment-error status, before any file is scanned.
TEST(Lint, UnknownOptionIsAUsageError)
{
    const LintResult r = runLint("--no-such-option x");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("unknown option --no-such-option"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("usage: thermostat_lint"),
              std::string::npos)
        << r.output;
}

// --list-rules names every rule the fixtures exercise.
TEST(Lint, ListRulesNamesEveryRule)
{
    const LintResult r = runLint("--list-rules");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    for (const char *rule :
         {"ban-random-device", "ban-c-random", "ban-wall-clock",
          "ban-naked-thread", "mutable-global", "metric-name-style",
          "trace-category", "unsafe-c-api",
          "hot-path-unordered-map", "shard-unsynced-state",
          "subsystem-layering", "rng-stream-discipline",
          "metric-schema", "merge-barrier-escape",
          "unused-baseline-entry"}) {
        EXPECT_NE(r.output.find(rule), std::string::npos)
            << "missing rule " << rule << "\n" << r.output;
    }
}

// The acceptance gate: the repository at HEAD lints clean under
// --ci (every rule active, every baseline entry still earning its
// keep) with the checked-in baseline picked up via --root.
TEST(Lint, RepositoryAtHeadIsClean)
{
    const LintResult r = runLint(std::string("--root '") +
                                 THERMOSTAT_REPO_ROOT + "' --ci");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_EQ(r.output.find("unused baseline entry"),
              std::string::npos)
        << r.output;
}
