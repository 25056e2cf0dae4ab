/**
 * @file
 * The multi-tenant datacenter host: N guest workloads consolidated
 * onto one two-tiered box, each driven by its own tiering policy.
 *
 * Thermostat's motivating deployment (paper Secs 1, 5.4) is a
 * datacenter host packing many VMs against a shared cheap-memory
 * tier.  This driver models that consolidation: every tenant is a
 * full Simulation (own Machine, policy, metrics, tracer) placed in
 * a disjoint virtual address window, and the host interleaves
 * their epochs round-robin in tenant order while a HostArbiter
 * meters the shared migration bandwidth and fast-tier capacity.
 *
 * Determinism and parity are load-bearing design points:
 *
 *  - Tenant i's RNG seed is base.seed + i, its address window is
 *    disjoint by construction, and epochs execute in tenant order,
 *    so a host run is a deterministic function of (specs, config).
 *  - Tenant 0 receives base.seed exactly, the default address
 *    window, and -- when no arbiter limit is configured -- no
 *    admission gate.  A 1-tenant host run is therefore
 *    byte-identical to the standalone Simulation it wraps; the
 *    parity test pins this.
 *  - All tenants share one worker pool (sized once from the base
 *    config), so consolidation does not multiply threads; lane
 *    partitioning keeps results worker-count-invariant.
 *
 * Per-tenant slowdown/SLO accounting lands in the host metric
 * registry under tenant/<id>/..., in the host flight recorder
 * (one row per host epoch with per-tenant columns) and in the
 * returned HostResult.
 */

#ifndef THERMOSTAT_HOST_DATACENTER_HOST_HH
#define THERMOSTAT_HOST_DATACENTER_HOST_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "host/host_arbiter.hh"
#include "host/tenant_spec.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "sim/simulation.hh"

namespace thermostat
{

/** Host-level configuration. */
struct HostConfig
{
    /**
     * Template for every tenant's SimConfig.  Per-tenant fields
     * (seed, policy, knobs, machine tuning, address window) are
     * derived from the TenantSpec on top of this base.
     */
    SimConfig base;

    /** Shared-resource limits (all-zero = inert arbiter). */
    HostArbiterConfig arbiter;

    /**
     * Spacing of tenant address windows.  Tenant 0 keeps the
     * default base (parity); tenant i > 0 starts at
     * kFirstRegionBase + i * stride.  Must exceed any tenant's
     * final virtual footprint.
     */
    Addr addressStride = 1024_GiB;

    /**
     * Retune each tenant's machine to its workload
     * (tunedMachineConfig), as the standalone CLI does.  Tests
     * that inject synthetic workloads turn this off so base.machine
     * is used verbatim.
     */
    bool tuneMachinePerWorkload = true;

    /**
     * Verify the arbiter's residency ledger against a ground-truth
     * page-table scan every epoch (the invariant the test layer
     * pins).  O(leaves) per tenant per epoch; on by default.
     */
    bool verifyLedger = true;

    /** Host flight-recorder capacity in epochs. */
    std::size_t flightCapacity = 1u << 12;
};

/** One tenant's end-of-run accounting. */
struct TenantOutcome
{
    std::string id;
    TenantSpec spec;
    SimResult result;

    double avgEpochSlowdown = 0.0;
    double maxEpochSlowdown = 0.0;
    Count measuredEpochs = 0;
    /** Measured epochs whose slowdown exceeded spec.targetPct. */
    Count sloViolations = 0;

    /** Final arbiter-ledger residency. */
    std::uint64_t fastBytes = 0;
    std::uint64_t slowBytes = 0;
    Count arbiterDenials = 0;
    std::uint64_t bytesDenied = 0;
};

/** Everything a host run produces. */
struct HostResult
{
    std::vector<TenantOutcome> tenants;
    Count hostEpochs = 0;
    Count arbiterDenials = 0;
    std::uint64_t bytesDenied = 0;
    /** Ledger-vs-scan mismatches (0 on a correct host). */
    Count invariantViolations = 0;
    /** Tenant leaves mapped outside their window (0 always). */
    Count isolationViolations = 0;
};

/**
 * Owns the tenant simulations, the arbiter and the host-level
 * observability, and interleaves tenant epochs to completion.
 */
class DatacenterHost
{
  public:
    /**
     * Test seam: builds the workload for one tenant.  The default
     * factory resolves spec.workload through makeWorkload /
     * makeRedisBursty / TraceWorkload::load (fatal on a bad trace
     * path; the CLI validates first).
     */
    using WorkloadFactory = std::function<std::unique_ptr<Workload>(
        const TenantSpec &, const SimConfig &)>;

    /**
     * @param specs Expanded tenant list (count == 1 each; run
     *        expandTenantSpecs() first).  Must be non-empty.
     * @param config Host configuration.
     * @param factory Optional workload factory override.
     */
    DatacenterHost(const std::vector<TenantSpec> &specs,
                   const HostConfig &config,
                   WorkloadFactory factory = nullptr);

    /** Run every tenant to completion and collect results. */
    HostResult run();

    unsigned tenantCount() const
    {
        return static_cast<unsigned>(tenants_.size());
    }
    const std::string &tenantId(unsigned i) const
    {
        return tenants_[i].spec.id;
    }
    Simulation &tenant(unsigned i) { return *tenants_[i].sim; }
    const Simulation &tenant(unsigned i) const
    {
        return *tenants_[i].sim;
    }

    HostArbiter &arbiter() { return arbiter_; }
    const HostArbiter &arbiter() const { return arbiter_; }

    /** Host-level registry: host/... and tenant/<id>/... metrics. */
    MetricRegistry &metrics() { return metrics_; }
    const MetricRegistry &metrics() const { return metrics_; }

    /** One row per host epoch; per-tenant slowdown/residency. */
    EpochFlightRecorder &flightRecorder() { return flight_; }
    const EpochFlightRecorder &flightRecorder() const
    {
        return flight_;
    }

    /**
     * Count leaves mapped outside their owner's address window
     * (ground-truth page-table scan).  Zero unless the window
     * assignment is broken.
     */
    Count isolationViolations();

    /** The SimConfig tenant @p i runs with (derivation exposed
     *  so tests can reproduce it for parity checks). */
    const SimConfig &tenantConfig(unsigned i) const
    {
        return tenants_[i].config;
    }

    /** Start of tenant @p i's virtual address window. */
    Addr windowBase(unsigned i) const;

  private:
    /** One tenant's runtime state. */
    struct TenantRuntime
    {
        TenantSpec spec;
        SimConfig config;
        std::unique_ptr<Simulation> sim;

        // Cumulative-counter latches for per-epoch deltas.
        std::uint64_t lastDemoted = 0;
        std::uint64_t lastPromoted = 0;
        std::uint64_t lastRss = 0;

        // SLO accounting over measured epochs.
        double slowdownSum = 0.0;
        double maxSlowdown = 0.0;
        double lastSlowdown = 0.0;
        Count measuredEpochs = 0;
        Count sloViolations = 0;
    };

    SimConfig deriveConfig(const TenantSpec &spec,
                           unsigned index) const;
    void registerTenantMetrics(unsigned index);
    /** Flight columns depend only on the spec count, so the
     *  recorder can be built before tenants_ is populated. */
    static std::vector<std::string>
    hostFlightColumnsFor(const std::vector<TenantSpec> &specs);
    void appendFlightRow(Ns at, unsigned active);

    HostConfig config_;
    std::unique_ptr<ThreadPool> pool_; //!< shared by all tenants
    std::vector<TenantRuntime> tenants_;
    HostArbiter arbiter_;
    MetricRegistry metrics_;
    EpochFlightRecorder flight_;
};

} // namespace thermostat

#endif // THERMOSTAT_HOST_DATACENTER_HOST_HH
