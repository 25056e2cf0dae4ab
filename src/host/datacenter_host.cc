#include "host/datacenter_host.hh"

#include <utility>

#include "common/logging.hh"
#include "sim/app_tuning.hh"
#include "workload/cloud_apps.hh"
#include "workload/trace.hh"

namespace thermostat
{

namespace
{

constexpr char kTracePrefix[] = "trace:";

/** Build the workload a spec names (the default factory). */
std::unique_ptr<Workload>
makeTenantWorkload(const TenantSpec &spec, const SimConfig &config)
{
    if (spec.workload.compare(0, sizeof(kTracePrefix) - 1,
                              kTracePrefix) == 0) {
        const std::string path =
            spec.workload.substr(sizeof(kTracePrefix) - 1);
        std::string error;
        auto w = TraceWorkload::load(path, &error);
        if (w == nullptr) {
            TSTAT_FATAL("tenant '%s': %s", spec.id.c_str(),
                        error.c_str());
        }
        return w;
    }
    if (spec.workload == "redis-bursty") {
        return makeRedisBursty(config.seed);
    }
    return makeWorkload(spec.workload, config.seed);
}

/** The app-tuning key for a spec ("redis-bursty" tunes as redis). */
std::string
tuningName(const TenantSpec &spec)
{
    return spec.workload == "redis-bursty" ? "redis"
                                           : spec.workload;
}

/** "tenant/<id>/<leaf>" (built here so registration call sites
 *  carry only lint-clean leaf literals). */
std::string
tenantMetricName(const std::string &id, const std::string &leaf)
{
    return "tenant/" + id + "/" + leaf;
}

/** Shared worker pool sized from the base config; null = serial. */
std::unique_ptr<ThreadPool>
makeSharedPool(const SimConfig &base)
{
    const unsigned shards = Simulation::resolveShards(base);
    return shards > 1 ? std::make_unique<ThreadPool>(shards)
                      : nullptr;
}

} // namespace

DatacenterHost::DatacenterHost(const std::vector<TenantSpec> &specs,
                               const HostConfig &config,
                               WorkloadFactory factory)
    : config_(config),
      pool_(makeSharedPool(config.base)),
      arbiter_(config.arbiter,
               static_cast<unsigned>(specs.empty() ? 1
                                                   : specs.size())),
      flight_(hostFlightColumnsFor(specs), config.flightCapacity)
{
    TSTAT_ASSERT(!specs.empty(), "host needs at least one tenant");
    TSTAT_ASSERT((config_.addressStride & (kPageSize2M - 1)) == 0,
                 "address stride must be 2MB aligned");
    tenants_.reserve(specs.size());
    for (unsigned i = 0; i < specs.size(); ++i) {
        const TenantSpec &spec = specs[i];
        TSTAT_ASSERT(spec.count == 1,
                     "tenant '%s' not expanded (count=%u); run "
                     "expandTenantSpecs first",
                     spec.id.c_str(), spec.count);
        TenantRuntime rt;
        rt.spec = spec;
        rt.config = deriveConfig(spec, i);
        auto workload =
            factory ? factory(spec, rt.config)
                    : makeTenantWorkload(spec, rt.config);
        TSTAT_ASSERT(workload != nullptr,
                     "tenant '%s': workload factory returned null",
                     spec.id.c_str());
        rt.sim = std::make_unique<Simulation>(
            std::move(workload), rt.config, pool_.get());
        tenants_.push_back(std::move(rt));
    }
    // Admission gates only when a limit is configured: an inert
    // arbiter leaves every tenant on the standalone code path
    // (the N=1 parity guarantee).
    if (arbiter_.metering()) {
        for (unsigned i = 0; i < tenants_.size(); ++i) {
            tenants_[i].sim->migrator().setAdmission(
                arbiter_.gate(i));
        }
    }
    arbiter_.registerMetrics(metrics_);
    flight_.registerMetrics(metrics_);
    metrics_.addCallback("host/tenants", [this] {
        return static_cast<double>(tenants_.size());
    });
    for (unsigned i = 0; i < tenants_.size(); ++i) {
        registerTenantMetrics(i);
    }
}

SimConfig
DatacenterHost::deriveConfig(const TenantSpec &spec,
                             unsigned index) const
{
    SimConfig cfg = config_.base;
    // Tenant 0 gets the base seed exactly so a 1-tenant host
    // reproduces the standalone run byte-for-byte.
    cfg.seed = config_.base.seed + index;
    cfg.policy = spec.policy;
    cfg.policyParams.coldFraction = spec.coldFraction;
    cfg.params.tolerableSlowdownPct = spec.targetPct;
    if (config_.tuneMachinePerWorkload) {
        const MachineConfig tuned =
            tunedMachineConfig(tuningName(spec));
        const MachineConfig &base = config_.base.machine;
        cfg.machine = tuned;
        // The base's mode switches survive retuning, exactly as
        // the standalone CLI applies them after tunedMachineConfig.
        cfg.machine.slowMode = base.slowMode;
        cfg.machine.countingMode = base.countingMode;
        cfg.machine.thpEnabled = base.thpEnabled;
        if (base.slowMode == SlowEmuMode::Device) {
            cfg.machine.trap.faultLatency =
                base.trap.faultLatency;
        }
    }
    cfg.machine.addressBase = windowBase(index) == kFirstRegionBase
                                  ? 0
                                  : windowBase(index);
    return cfg;
}

Addr
DatacenterHost::windowBase(unsigned i) const
{
    return kFirstRegionBase +
           static_cast<Addr>(i) * config_.addressStride;
}

void
DatacenterHost::registerTenantMetrics(unsigned index)
{
    const std::string &id = tenants_[index].spec.id;
    metrics_.addCallback(tenantMetricName(id, "slowdown"),
                         [this, index] {
                             return tenants_[index].lastSlowdown;
                         });
    metrics_.addCallback(
        tenantMetricName(id, "avg_slowdown"), [this, index] {
            const TenantRuntime &t = tenants_[index];
            return t.measuredEpochs > 0
                       ? t.slowdownSum /
                             static_cast<double>(t.measuredEpochs)
                       : 0.0;
        });
    metrics_.addCallback(tenantMetricName(id, "max_slowdown"),
                         [this, index] {
                             return tenants_[index].maxSlowdown;
                         });
    metrics_.addCallback(
        tenantMetricName(id, "slo_violations"), [this, index] {
            return static_cast<double>(
                tenants_[index].sloViolations);
        });
    metrics_.addCallback(
        tenantMetricName(id, "measured_epochs"), [this, index] {
            return static_cast<double>(
                tenants_[index].measuredEpochs);
        });
    metrics_.addCallback(tenantMetricName(id, "fast_bytes"),
                         [this, index] {
                             return static_cast<double>(
                                 arbiter_.fastBytes(index));
                         });
    metrics_.addCallback(tenantMetricName(id, "slow_bytes"),
                         [this, index] {
                             return static_cast<double>(
                                 arbiter_.slowBytes(index));
                         });
    metrics_.addCallback(tenantMetricName(id, "denials"),
                         [this, index] {
                             return static_cast<double>(
                                 arbiter_.denials(index));
                         });
    metrics_.addCallback(tenantMetricName(id, "bytes_denied"),
                         [this, index] {
                             return static_cast<double>(
                                 arbiter_.bytesDenied(index));
                         });
}

std::vector<std::string>
DatacenterHost::hostFlightColumnsFor(
    const std::vector<TenantSpec> &specs)
{
    std::vector<std::string> cols = {
        "active_tenants", "grant_bytes",  "used_bytes",
        "denials",        "bytes_denied", "fast_bytes",
        "slow_bytes",     "invariant_violations"};
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string t = "t" + std::to_string(i);
        cols.push_back(t + "_slowdown");
        cols.push_back(t + "_fast_bytes");
        cols.push_back(t + "_denials");
    }
    return cols;
}

void
DatacenterHost::appendFlightRow(Ns at, unsigned active)
{
    std::uint64_t grant = 0;
    std::uint64_t used = 0;
    for (unsigned i = 0; i < tenants_.size(); ++i) {
        grant += arbiter_.grantBytes(i);
        used += arbiter_.usedGrantBytes(i);
    }
    std::vector<double> row = {
        static_cast<double>(active),
        static_cast<double>(grant),
        static_cast<double>(used),
        static_cast<double>(arbiter_.totalDenials()),
        static_cast<double>(arbiter_.totalBytesDenied()),
        static_cast<double>(arbiter_.totalFastBytes()),
        static_cast<double>(arbiter_.totalSlowBytes()),
        static_cast<double>(arbiter_.invariantViolations())};
    for (unsigned i = 0; i < tenants_.size(); ++i) {
        row.push_back(tenants_[i].lastSlowdown);
        row.push_back(static_cast<double>(arbiter_.fastBytes(i)));
        row.push_back(static_cast<double>(arbiter_.denials(i)));
    }
    flight_.append(at, row);
}

Count
DatacenterHost::isolationViolations()
{
    Count violations = 0;
    for (unsigned i = 0; i < tenants_.size(); ++i) {
        const Addr lo = windowBase(i);
        const Addr hi = lo + config_.addressStride;
        tenants_[i].sim->machine().space().pageTable().forEachLeaf(
            [&](Addr vaddr, Pte &, bool) {
                if (vaddr < lo || vaddr >= hi) {
                    ++violations;
                }
            });
    }
    return violations;
}

HostResult
DatacenterHost::run()
{
    const unsigned n = tenantCount();
    for (unsigned i = 0; i < n; ++i) {
        TenantRuntime &t = tenants_[i];
        t.sim->startRun();
        AddressSpace &space = t.sim->machine().space();
        arbiter_.setInitialResidency(
            i, space.bytesInTier(Tier::Fast),
            space.bytesInTier(Tier::Slow));
        t.lastRss = space.rssBytes();
        t.lastDemoted = t.sim->migrator().stats().bytesDemoted;
        t.lastPromoted = t.sim->migrator().stats().bytesPromoted;
    }

    HostResult result;
    std::vector<bool> active(n, false);
    Ns host_time = 0;
    while (true) {
        unsigned live = 0;
        for (unsigned i = 0; i < n; ++i) {
            active[i] = !tenants_[i].sim->runDone();
            live += active[i] ? 1u : 0u;
        }
        if (live == 0) {
            break;
        }
        arbiter_.beginEpoch(host_time, active);
        for (unsigned i = 0; i < n; ++i) {
            if (!active[i]) {
                continue;
            }
            TenantRuntime &t = tenants_[i];
            const Simulation::EpochReport rep =
                t.sim->stepEpoch();

            // Reconcile the residency ledger from this epoch's
            // cumulative-counter deltas.
            const MigrationStats &mig = t.sim->migrator().stats();
            AddressSpace &space = t.sim->machine().space();
            const std::uint64_t rss = space.rssBytes();
            arbiter_.applyEpochDeltas(
                i, mig.bytesDemoted - t.lastDemoted,
                mig.bytesPromoted - t.lastPromoted,
                rss - t.lastRss);
            t.lastDemoted = mig.bytesDemoted;
            t.lastPromoted = mig.bytesPromoted;
            t.lastRss = rss;
            if (config_.verifyLedger) {
                arbiter_.verifyTenant(
                    i, space.bytesInTier(Tier::Fast),
                    space.bytesInTier(Tier::Slow));
            }

            if (rep.measured) {
                t.lastSlowdown = rep.slowdown;
                t.slowdownSum += rep.slowdown;
                if (rep.slowdown > t.maxSlowdown) {
                    t.maxSlowdown = rep.slowdown;
                }
                ++t.measuredEpochs;
                if (rep.slowdown >
                    t.spec.targetPct / 100.0) {
                    ++t.sloViolations;
                }
            }
        }
        host_time += config_.base.epoch;
        ++result.hostEpochs;
        appendFlightRow(host_time, live);
    }

    result.isolationViolations = isolationViolations();
    for (unsigned i = 0; i < n; ++i) {
        TenantRuntime &t = tenants_[i];
        TenantOutcome out;
        out.id = t.spec.id;
        out.spec = t.spec;
        out.result = t.sim->finishRun();
        out.avgEpochSlowdown =
            t.measuredEpochs > 0
                ? t.slowdownSum /
                      static_cast<double>(t.measuredEpochs)
                : 0.0;
        out.maxEpochSlowdown = t.maxSlowdown;
        out.measuredEpochs = t.measuredEpochs;
        out.sloViolations = t.sloViolations;
        out.fastBytes = arbiter_.fastBytes(i);
        out.slowBytes = arbiter_.slowBytes(i);
        out.arbiterDenials = arbiter_.denials(i);
        out.bytesDenied = arbiter_.bytesDenied(i);
        result.tenants.push_back(std::move(out));
    }
    result.arbiterDenials = arbiter_.totalDenials();
    result.bytesDenied = arbiter_.totalBytesDenied();
    result.invariantViolations = arbiter_.invariantViolations();
    for (const std::string &msg : arbiter_.messages()) {
        TSTAT_WARN("host arbiter: %s", msg.c_str());
    }
    return result;
}

} // namespace thermostat
