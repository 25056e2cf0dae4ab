/**
 * @file
 * Host determinism matrix: a consolidated multi-tenant run must be
 * a pure function of (specs, config) -- byte-identical across
 * worker-pool sizes (THERMOSTAT_JOBS), shard counts (--shards),
 * and simple repetition, mirroring what test_shard_determinism
 * proves for a standalone Simulation.
 *
 * The host adds three things the standalone matrix does not cover:
 * the shared worker pool injected into every tenant, the arbiter's
 * fair-share grant split, and the per-epoch accounting reads.  All
 * are deterministic by construction (tenant order is fixed, the
 * grant split is integer arithmetic over active indices, and the
 * scans are read-only); this suite proves it empirically.
 *
 * The same binary runs under TSan in the shard-determinism CI job,
 * which additionally proves the consolidated tenants share no
 * unsynchronized state through the pool.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
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

/** Everything we compare between two host runs. */
struct HostFingerprint
{
    std::string hostFlightCsv;
    std::string hostMetricsJson;
    std::vector<std::string> tenantMetrics;
    std::vector<std::string> tenantFlights;
    std::vector<std::uint64_t> samplerDigests;
    std::vector<double> slowdowns;
    Count denials = 0;
    Count invariantViolations = 0;
};

DatacenterHost::WorkloadFactory
halfColdFactory()
{
    return [](const TenantSpec &, const SimConfig &) {
        return halfColdWorkload();
    };
}

std::vector<TenantSpec>
matrixTenants()
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
matrixConfig(std::uint64_t seed, unsigned shards)
{
    HostConfig config;
    config.base = tinySimConfig(seed);
    config.base.samplesPerEpoch = 2000;
    config.base.duration = 20 * kNsPerSec;
    config.base.shards = shards;
    config.base.sampler.keepRecords = true;
    config.base.sampler.maxRecords = 256;
    config.tuneMachinePerWorkload = false;
    config.arbiter.migrationBwBytesPerSec = 48.0e6;
    config.arbiter.tenantFastCapBytes = 48_MiB;
    config.arbiter.epoch = config.base.epoch;
    return config;
}

HostFingerprint
runHost(std::uint64_t seed, unsigned shards)
{
    DatacenterHost host(matrixTenants(),
                        matrixConfig(seed, shards),
                        halfColdFactory());
    const HostResult hr = host.run();

    HostFingerprint fp;
    fp.hostFlightCsv = host.flightRecorder().toCsv();
    fp.hostMetricsJson = host.metrics().dumpJson();
    for (unsigned i = 0; i < host.tenantCount(); ++i) {
        Simulation &tenant = host.tenant(i);
        fp.tenantMetrics.push_back(tenant.metricsJson());
        fp.tenantFlights.push_back(
            tenant.flightRecorder().toCsv());
        fp.samplerDigests.push_back(
            tenant.accessSampler() != nullptr
                ? tenant.accessSampler()->streamDigest()
                : 0);
        fp.slowdowns.push_back(hr.tenants[i].result.slowdown);
    }
    fp.denials = hr.arbiterDenials;
    fp.invariantViolations = hr.invariantViolations;
    return fp;
}

void
expectIdentical(const HostFingerprint &ref,
                const HostFingerprint &got, const std::string &where)
{
    EXPECT_EQ(ref.hostFlightCsv, got.hostFlightCsv) << where;
    EXPECT_EQ(ref.hostMetricsJson, got.hostMetricsJson) << where;
    EXPECT_EQ(ref.tenantMetrics, got.tenantMetrics) << where;
    EXPECT_EQ(ref.tenantFlights, got.tenantFlights) << where;
    EXPECT_EQ(ref.samplerDigests, got.samplerDigests) << where;
    EXPECT_EQ(ref.slowdowns, got.slowdowns) << where;
    EXPECT_EQ(ref.denials, got.denials) << where;
    EXPECT_EQ(ref.invariantViolations, got.invariantViolations)
        << where;
}

/** RAII env pin for THERMOSTAT_JOBS. */
class ScopedJobs
{
  public:
    explicit ScopedJobs(const char *value)
    {
        const char *old = std::getenv("THERMOSTAT_JOBS");
        had_ = old != nullptr;
        if (had_) {
            saved_ = old;
        }
        ::setenv("THERMOSTAT_JOBS", value, 1);
    }

    ~ScopedJobs()
    {
        if (had_) {
            ::setenv("THERMOSTAT_JOBS", saved_.c_str(), 1);
        } else {
            ::unsetenv("THERMOSTAT_JOBS");
        }
    }

  private:
    bool had_ = false;
    std::string saved_;
};

TEST(HostDeterminism, JobsShardsRerunMatrix)
{
    // Reference: serial pool, serial pipeline.
    HostFingerprint ref;
    {
        ScopedJobs jobs("1");
        ref = runHost(5, 1);
    }
    ASSERT_FALSE(ref.hostFlightCsv.empty());
    ASSERT_EQ(ref.invariantViolations, 0u);

    for (const char *jobs_env : {"1", "4"}) {
        // shards 0 = auto, which is where THERMOSTAT_JOBS actually
        // steers the pool size.
        for (const unsigned shards : {0u, 1u, 8u}) {
            ScopedJobs jobs(jobs_env);
            const std::string where =
                std::string("jobs=") + jobs_env +
                " shards=" + std::to_string(shards);
            expectIdentical(ref, runHost(5, shards), where);
            if (::testing::Test::HasFailure()) {
                return; // one cell's dump is enough
            }
            // Same-seed rerun inside the same cell.
            expectIdentical(ref, runHost(5, shards),
                            where + " (rerun)");
            if (::testing::Test::HasFailure()) {
                return;
            }
        }
    }
}

TEST(HostDeterminism, DistinctSeedsDiverge)
{
    // Sanity check that the fingerprint has discriminating power:
    // different seeds must not collide.
    ScopedJobs jobs("1");
    const HostFingerprint a = runHost(5, 1);
    const HostFingerprint b = runHost(6, 1);
    EXPECT_NE(a.tenantMetrics, b.tenantMetrics);
}

} // namespace
} // namespace thermostat
