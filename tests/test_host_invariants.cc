/**
 * @file
 * Multi-tenant host property tests: over many seeded consolidated
 * runs, the host's accounting invariants must hold exactly:
 *
 *  - Residency: the arbiter's per-tenant fast/slow ledger equals
 *    a ground-truth page-table scan after every epoch (the host
 *    verifies each epoch with verifyLedger; any mismatch counts
 *    as an invariant violation) and at end of run.
 *  - Bandwidth: per-epoch grants never exceed the epoch budget,
 *    and admitted bytes never exceed the grant (checked from the
 *    host flight recorder's grant/used columns).
 *  - Isolation: no tenant maps a page outside its own address
 *    window.
 *  - Conservation: every tenant's fast+slow residency equals its
 *    RSS.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "host/datacenter_host.hh"

namespace thermostat
{
namespace
{

using test::halfColdWorkload;
using test::tinySimConfig;

constexpr double kBwBytesPerSec = 48.0e6;

DatacenterHost::WorkloadFactory
halfColdFactory()
{
    return [](const TenantSpec &, const SimConfig &) {
        return halfColdWorkload();
    };
}

std::vector<TenantSpec>
threeTenants()
{
    std::vector<TenantSpec> specs;
    const char *const policies[] = {"thermostat", "lru-age",
                                    "hotness"};
    for (unsigned i = 0; i < 3; ++i) {
        TenantSpec spec;
        spec.id = "t" + std::to_string(i);
        spec.workload = "half-cold";
        spec.policy = policies[i];
        spec.coldFraction = 0.4;
        specs.push_back(spec);
    }
    return specs;
}

HostConfig
contendedHostConfig(std::uint64_t seed)
{
    HostConfig config;
    config.base = tinySimConfig(seed);
    config.base.samplesPerEpoch = 2000;
    config.base.duration = 30 * kNsPerSec;
    config.tuneMachinePerWorkload = false;
    config.verifyLedger = true;
    // Tight limits so the arbiter actually meters: a thin shared
    // bandwidth budget and a per-tenant fast cap under the 64MB
    // footprint.
    config.arbiter.migrationBwBytesPerSec = kBwBytesPerSec;
    config.arbiter.tenantFastCapBytes = 48_MiB;
    config.arbiter.epoch = config.base.epoch;
    return config;
}

/** Parse one named column out of the host flight CSV. */
std::vector<double>
csvColumn(const std::string &csv, const std::string &column)
{
    std::istringstream in(csv);
    std::string header;
    if (!std::getline(in, header)) {
        return {};
    }
    int index = -1;
    {
        std::istringstream hs(header);
        std::string cell;
        for (int i = 0; std::getline(hs, cell, ','); ++i) {
            if (cell == column) {
                index = i;
            }
        }
    }
    std::vector<double> out;
    if (index < 0) {
        return out;
    }
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string cell;
        for (int i = 0; std::getline(ls, cell, ','); ++i) {
            if (i == index) {
                out.push_back(std::atof(cell.c_str()));
            }
        }
    }
    return out;
}

void
checkRun(std::uint64_t seed)
{
    DatacenterHost host(threeTenants(), contendedHostConfig(seed),
                        halfColdFactory());
    const HostResult hr = host.run();
    const std::string where = "seed=" + std::to_string(seed);

    // Per-epoch ledger == scan held throughout (verifyLedger).
    EXPECT_EQ(hr.invariantViolations, 0u) << where;
    // No tenant escaped its address window.
    EXPECT_EQ(hr.isolationViolations, 0u) << where;

    const std::uint64_t epoch_budget =
        static_cast<std::uint64_t>(kBwBytesPerSec); // 1s epochs
    const std::string csv = host.flightRecorder().toCsv();
    const std::vector<double> grants = csvColumn(csv, "grant_bytes");
    const std::vector<double> used = csvColumn(csv, "used_bytes");
    ASSERT_FALSE(grants.empty()) << where;
    ASSERT_EQ(grants.size(), used.size()) << where;
    for (std::size_t i = 0; i < grants.size(); ++i) {
        // Grants split the budget exactly; admits never exceed
        // the grant.
        EXPECT_LE(grants[i],
                  static_cast<double>(epoch_budget) + 0.5)
            << where << " epoch " << i;
        EXPECT_LE(used[i], grants[i] + 0.5)
            << where << " epoch " << i;
    }

    for (unsigned i = 0; i < host.tenantCount(); ++i) {
        AddressSpace &space = host.tenant(i).machine().space();
        const std::uint64_t fast = space.bytesInTier(Tier::Fast);
        const std::uint64_t slow = space.bytesInTier(Tier::Slow);
        // End-of-run ledger equals the ground-truth scan...
        EXPECT_EQ(host.arbiter().fastBytes(i), fast)
            << where << " tenant " << i;
        EXPECT_EQ(host.arbiter().slowBytes(i), slow)
            << where << " tenant " << i;
        // ...and residency is conserved: every RSS byte is in
        // exactly one tier.
        EXPECT_EQ(fast + slow, space.rssBytes())
            << where << " tenant " << i;
        // Isolation, directly: every leaf in the tenant's window.
        const Addr lo = host.windowBase(i);
        const Addr hi = lo + 1024_GiB;
        space.pageTable().forEachLeaf(
            [&](Addr vaddr, Pte &, bool) {
                EXPECT_TRUE(vaddr >= lo && vaddr < hi)
                    << where << " tenant " << i << " leaf "
                    << vaddr;
            });
    }

    // The tight budget must actually have metered something,
    // otherwise this suite proves nothing.
    EXPECT_GT(hr.arbiterDenials, 0u) << where;
}

TEST(HostInvariants, FiftySeededRunsHoldAllInvariants)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        checkRun(seed);
        if (::testing::Test::HasFailure()) {
            return; // one seed's dump is enough
        }
    }
}

TEST(HostInvariants, WindowsAreDisjointByConstruction)
{
    DatacenterHost host(threeTenants(),
                        contendedHostConfig(7), halfColdFactory());
    for (unsigned i = 0; i < host.tenantCount(); ++i) {
        for (unsigned j = i + 1; j < host.tenantCount(); ++j) {
            const Addr lo_i = host.windowBase(i);
            const Addr lo_j = host.windowBase(j);
            EXPECT_NE(lo_i, lo_j);
            EXPECT_GE(lo_j > lo_i ? lo_j - lo_i : lo_i - lo_j,
                      1024_GiB);
        }
    }
}

TEST(HostInvariants, CapacityCapBoundsPromotions)
{
    // With a per-tenant fast cap, no tenant's ledger may end the
    // run above cap + one epoch's worth of conservatively-admitted
    // bytes (admission is checked against the prospective total).
    HostConfig config = contendedHostConfig(11);
    config.arbiter.migrationBwBytesPerSec = 0; // capacity only
    config.arbiter.tenantFastCapBytes = 40_MiB;
    DatacenterHost host(threeTenants(), config,
                        halfColdFactory());
    const HostResult hr = host.run();
    EXPECT_EQ(hr.invariantViolations, 0u);
    for (unsigned i = 0; i < host.tenantCount(); ++i) {
        // Initial residency may exceed the cap (first-touch runs
        // ungated); the cap bounds what promotions may add. After
        // placement converges every tenant demotes its cold half,
        // so the ledger must end at or below the initial RSS.
        EXPECT_LE(host.arbiter().fastBytes(i),
                  host.tenant(i).machine().space().rssBytes());
    }
}

} // namespace
} // namespace thermostat
