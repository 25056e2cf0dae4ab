/**
 * @file
 * Tenant-spec parser tests: the --tenants grammar's happy paths,
 * every rejection class (malformed counts and knobs, unknown
 * keys and policy/workload names with their listings, duplicate
 * ids), a seeded random fuzz sweep that must never crash,
 * and the CLI contract that a bad --tenants file exits 2 with the
 * diagnostic on stderr (the --list-policies convention).  The same
 * contract covers the removed fault-injection inputs: --fault-plan,
 * the `fault` trace category and the tenant fault-plan= key.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "harness.hh"
#include "host/tenant_spec.hh"
#include "policy/policy_factory.hh"

#ifndef THERMOSTAT_SIM_BIN
#error "tests/CMakeLists.txt must define THERMOSTAT_SIM_BIN"
#endif

namespace thermostat
{
namespace
{

using test::TempDir;
using test::spillFile;

bool
parse(const std::string &text, std::vector<TenantSpec> *out,
      std::string *error)
{
    return parseTenantSpecs(text, out, error);
}

TEST(TenantSpec, ParsesFullGrammar)
{
    std::vector<TenantSpec> specs;
    std::string error;
    ASSERT_TRUE(parse("# comment line\n"
                      "\n"
                      "id=web workload=web-search policy=thermostat"
                      " target=2.5\n"
                      "id=cache workload=redis policy=lru-age"
                      " cold-fraction=0.3 count=4\n"
                      "id=db workload=cassandra\n",
                      &specs, &error))
        << error;
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].id, "web");
    EXPECT_EQ(specs[0].workload, "web-search");
    EXPECT_EQ(specs[0].targetPct, 2.5);
    EXPECT_EQ(specs[1].policy, "lru-age");
    EXPECT_EQ(specs[1].coldFraction, 0.3);
    EXPECT_EQ(specs[1].count, 4u);
    EXPECT_EQ(specs[2].workload, "cassandra");
    EXPECT_EQ(specs[2].policy, "thermostat"); // default
}

TEST(TenantSpec, ExpandsCounts)
{
    std::vector<TenantSpec> specs;
    std::vector<TenantSpec> expanded;
    std::string error;
    ASSERT_TRUE(parse("id=a workload=redis count=3\n"
                      "id=b workload=redis\n",
                      &specs, &error))
        << error;
    ASSERT_TRUE(expandTenantSpecs(specs, &expanded, &error))
        << error;
    ASSERT_EQ(expanded.size(), 4u);
    EXPECT_EQ(expanded[0].id, "a.0");
    EXPECT_EQ(expanded[1].id, "a.1");
    EXPECT_EQ(expanded[2].id, "a.2");
    EXPECT_EQ(expanded[3].id, "b");
    for (const TenantSpec &spec : expanded) {
        EXPECT_EQ(spec.count, 1u);
    }
}

TEST(TenantSpec, RejectsEveryMalformationClass)
{
    const struct
    {
        const char *text;
        const char *needle; //!< must appear in the diagnostic
    } cases[] = {
        {"", "no tenants"},
        {"workload=redis\n", "id"},
        {"id=a\n", "workload"},
        {"id=a workload=nope\n", "unknown workload"},
        {"id=a workload=redis policy=nope\n", "unknown policy"},
        {"id=a workload=redis count=0\n", "count"},
        {"id=a workload=redis count=-3\n", "count"},
        {"id=a workload=redis count=abc\n", "count"},
        {"id=a workload=redis count=999999999999\n", "count"},
        {"id=a workload=redis cold-fraction=1.5\n",
         "cold-fraction"},
        {"id=a workload=redis cold-fraction=zero\n",
         "cold-fraction"},
        {"id=a workload=redis target=0\n", "target"},
        {"id=a workload=redis target=200\n", "target"},
        {"id=a workload=redis frobnicate=1\n", "unknown key"},
        {"id=a workload=redis\nid=a workload=redis\n",
         "duplicate"},
        {"id=bad/id workload=redis\n", "id"},
        {"id=a workload=redis fault-plan=migration-copy:p=0.1\n",
         "unknown key 'fault-plan'"},
        {"stray-token\n", "expected"},
    };
    for (const auto &c : cases) {
        std::vector<TenantSpec> parsed;
        std::vector<TenantSpec> expanded;
        std::string error;
        const bool ok =
            parse(c.text, &parsed, &error) &&
            expandTenantSpecs(parsed, &expanded, &error);
        EXPECT_FALSE(ok) << "accepted: " << c.text;
        EXPECT_NE(error.find(c.needle), std::string::npos)
            << "diagnostic for \"" << c.text
            << "\" missing \"" << c.needle << "\"; got: " << error;
    }
}

TEST(TenantSpec, UnknownNamesListTheKnownOnes)
{
    // The diagnostic embeds the listing, exactly like the CLI's
    // unknown-name convention.
    std::vector<TenantSpec> specs;
    std::string error;
    EXPECT_FALSE(
        parse("id=a workload=redis policy=nope\n", &specs, &error));
    for (const std::string &name : PolicyFactory::names()) {
        EXPECT_NE(error.find(name), std::string::npos)
            << "policy listing missing " << name;
    }
    error.clear();
    EXPECT_FALSE(parse("id=a workload=nope\n", &specs, &error));
    EXPECT_NE(error.find("web-search"), std::string::npos) << error;
    EXPECT_NE(error.find("redis-bursty"), std::string::npos)
        << error;
    EXPECT_NE(error.find("trace:"), std::string::npos) << error;
    error.clear();
    EXPECT_FALSE(parse("id=a workload=redis frobnicate=1\n", &specs,
                       &error));
    for (const char *key : {"id", "workload", "policy", "target",
                            "cold-fraction", "count"}) {
        EXPECT_NE(error.find(key), std::string::npos)
            << "key listing missing " << key;
    }
}

TEST(TenantSpec, DuplicateIdsAcrossCountExpansion)
{
    // "a" with count 2 produces a.0/a.1; an explicit a.1 collides
    // only after expansion -- which is where the check lives.
    std::vector<TenantSpec> parsed;
    std::vector<TenantSpec> expanded;
    std::string error;
    ASSERT_TRUE(parse("id=a workload=redis count=2\n"
                      "id=a.1 workload=redis\n",
                      &parsed, &error))
        << error;
    EXPECT_FALSE(expandTenantSpecs(parsed, &expanded, &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
    EXPECT_NE(error.find("a.1"), std::string::npos) << error;
}

TEST(TenantSpec, FuzzNeverCrashes)
{
    // Seeded random byte soup: the parser must always return
    // (true with specs, or false with a non-empty diagnostic) and
    // never crash.  Character set skews toward grammar tokens so
    // the interesting paths actually get hit.
    const std::string alphabet =
        "id=workload policy count target cold-fraction"
        " redis\n\t #.:/-0123456789\xff\x01";
    Rng rng(20260808);
    for (int round = 0; round < 2000; ++round) {
        std::string text;
        const std::size_t len = rng.next() % 160;
        for (std::size_t i = 0; i < len; ++i) {
            text += alphabet[rng.next() % alphabet.size()];
        }
        std::vector<TenantSpec> specs;
        std::string error;
        if (!parseTenantSpecs(text, &specs, &error)) {
            EXPECT_FALSE(error.empty())
                << "silent failure on: " << text;
        } else {
            std::vector<TenantSpec> expanded;
            EXPECT_TRUE(
                expandTenantSpecs(specs, &expanded, &error) ||
                !error.empty());
        }
    }
}

/** Run @p cmd, capture stdout+stderr, return the exit status. */
int
runCommand(const std::string &cmd, std::string *output)
{
    std::FILE *pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (pipe == nullptr) {
        return -1;
    }
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
        output->append(buf, n);
    }
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(TenantSpecCli, BadTenantsFileExitsTwoWithListing)
{
    TempDir dir;
    const std::string conf = dir.file("tenants.conf");
    ASSERT_TRUE(
        spillFile(conf, "id=a workload=redis policy=nope\n"));
    std::string output;
    const int status = runCommand(
        std::string(THERMOSTAT_SIM_BIN) + " --tenants " + conf,
        &output);
    EXPECT_EQ(status, 2) << output;
    EXPECT_NE(output.find("unknown policy"), std::string::npos)
        << output;
    EXPECT_NE(output.find("thermostat"), std::string::npos)
        << output;
}

TEST(TenantSpecCli, FaultPlanKeyExitsTwoWithKeyListing)
{
    TempDir dir;
    const std::string conf = dir.file("tenants.conf");
    ASSERT_TRUE(spillFile(conf, "id=a workload=redis"
                                " fault-plan=migration-copy:p=0.1\n"));
    std::string output;
    const int status = runCommand(
        std::string(THERMOSTAT_SIM_BIN) + " --tenants " + conf,
        &output);
    EXPECT_EQ(status, 2) << output;
    EXPECT_NE(output.find("unknown key 'fault-plan'"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("cold-fraction"), std::string::npos)
        << output;
}

TEST(SimCli, FaultOptionsAreRejectedWithUsage)
{
    for (const char *args :
         {" --workload redis --fault-plan x",
          " --workload redis --trace-events fault"}) {
        SCOPED_TRACE(args);
        std::string output;
        const int status = runCommand(
            std::string(THERMOSTAT_SIM_BIN) + args, &output);
        EXPECT_EQ(status, 2) << output;
        EXPECT_NE(output.find("usage:"), std::string::npos)
            << output;
        EXPECT_EQ(output.find("fault-plan"), std::string::npos)
            << output;
    }
}

TEST(TenantSpecCli, MissingFileExitsTwo)
{
    std::string output;
    const int status = runCommand(
        std::string(THERMOSTAT_SIM_BIN) +
            " --tenants /nonexistent/tenants.conf",
        &output);
    EXPECT_EQ(status, 2) << output;
}

TEST(TenantSpecCli, TenantsAndWorkloadAreMutuallyExclusive)
{
    TempDir dir;
    const std::string conf = dir.file("tenants.conf");
    ASSERT_TRUE(spillFile(conf, "id=a workload=redis\n"));
    std::string output;
    const int status = runCommand(
        std::string(THERMOSTAT_SIM_BIN) + " --tenants " + conf +
            " --workload redis",
        &output);
    EXPECT_EQ(status, 2) << output;
}

} // namespace
} // namespace thermostat
