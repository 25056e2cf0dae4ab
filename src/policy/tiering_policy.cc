#include "policy/tiering_policy.hh"

#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"
#include "migrate/migration_queue.hh"
#include "obs/metrics.hh"

namespace thermostat
{

namespace
{

bool
parseDouble(const std::string &value, double *out)
{
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (errno != 0 || end == value.c_str() || *end != '\0') {
        return false;
    }
    *out = parsed;
    return true;
}

bool
parseUint(const std::string &value, std::uint64_t *out)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(value.c_str(), &end, 10);
    if (errno != 0 || end == value.c_str() || *end != '\0') {
        return false;
    }
    *out = parsed;
    return true;
}

} // namespace

const std::vector<PolicyParamKey> &
policyParamKeys()
{
    static const std::vector<PolicyParamKey> kKeys = {
        {"cold-fraction",
         "fraction of the RSS placed in slow memory (0..1)"},
        {"decision-period-sec",
         "re-evaluation period of the periodic engines, seconds"},
        {"idle-scans-to-demote",
         "lru-age: consecutive idle scans before demotion"},
        {"promote-rate-threshold",
         "accesses/sec above which a placed page is promoted"},
        {"promote-batch", "max promotions per decision period"},
        {"queue-capacity",
         "nomad/remap: bounded migration-queue depth (requests)"},
        {"queue-service-bytes",
         "nomad/remap: bytes serviced per epoch (0 = unlimited)"},
        {"queue-busy-threshold",
         "nomad/remap: pressure at which engines stop enqueuing"},
    };
    return kKeys;
}

bool
setPolicyParam(PolicyParams &params, const std::string &key,
               const std::string &value, std::string *error)
{
    double d = 0.0;
    std::uint64_t u = 0;
    if (key == "cold-fraction") {
        if (!parseDouble(value, &d) || d < 0.0 || d > 1.0) {
            *error = "expects a fraction in [0,1]";
            return false;
        }
        params.coldFraction = d;
    } else if (key == "decision-period-sec") {
        if (!parseDouble(value, &d) || d <= 0.0) {
            *error = "expects a positive number of seconds";
            return false;
        }
        params.decisionPeriod = static_cast<Ns>(
            d * static_cast<double>(kNsPerSec));
    } else if (key == "idle-scans-to-demote") {
        if (!parseUint(value, &u) || u == 0) {
            *error = "expects a positive integer";
            return false;
        }
        params.idleScansToDemote = static_cast<unsigned>(u);
    } else if (key == "promote-rate-threshold") {
        if (!parseDouble(value, &d) || d < 0.0) {
            *error = "expects a non-negative rate";
            return false;
        }
        params.promoteRateThreshold = d;
    } else if (key == "promote-batch") {
        if (!parseUint(value, &u)) {
            *error = "expects a non-negative integer";
            return false;
        }
        params.promoteBatch = static_cast<std::size_t>(u);
    } else if (key == "queue-capacity") {
        if (!parseUint(value, &u) || u == 0) {
            *error = "expects a positive integer";
            return false;
        }
        params.queueCapacity = static_cast<std::size_t>(u);
    } else if (key == "queue-service-bytes") {
        if (!parseUint(value, &u)) {
            *error = "expects a byte count (0 = unlimited)";
            return false;
        }
        params.queueServiceBytes = u;
    } else if (key == "queue-busy-threshold") {
        if (!parseDouble(value, &d) || d <= 0.0 || d > 1.0) {
            *error = "expects a fraction in (0,1]";
            return false;
        }
        params.queueBusyThreshold = d;
    } else {
        *error = "unknown key";
        return false;
    }
    return true;
}

TieringPolicy::TieringPolicy(const PolicyContext &ctx)
    : ctxCgroup_(ctx.cgroup),
      ctxSpace_(ctx.space),
      ctxTrap_(ctx.trap),
      ctxKstaled_(ctx.kstaled),
      ctxMigrator_(ctx.migrator),
      params_(ctx.params),
      workload_(ctx.workload),
      queue_(ctx.queue),
      transactions_(ctx.transactions)
{
}

double
TieringPolicy::queuePressure() const
{
    return queue_ != nullptr ? queue_->pressure() : 0.0;
}

void
TieringPolicy::applyQueueCompletions()
{
    TSTAT_ASSERT(queue_ != nullptr,
                 "applyQueueCompletions without a queue");
    for (const QueueCompletion &done : queue_->takeCompletions()) {
        const auto it = inFlight_.find(done.base);
        if (it != inFlight_.end()) {
            if (it->value == OrderDir::Demote) {
                inFlightDemoteBytes_ -= done.bytes;
            } else {
                inFlightPromoteBytes_ -= done.bytes;
            }
            inFlight_.erase(done.base);
        }
        if (!done.moved) {
            ++stats_.placementFailures;
            continue;
        }
        if (done.target == Tier::Slow) {
            if (done.huge) {
                placedHuge_.insert(done.base);
            } else {
                placedBase_.insert(done.base);
            }
            placedBytes_ += done.bytes;
        } else {
            if (done.huge) {
                placedHuge_.erase(done.base);
            } else {
                placedBase_.erase(done.base);
            }
            placedBytes_ -= done.bytes;
        }
    }
}

bool
TieringPolicy::orderDemotion(Addr base, bool huge, Ns now,
                             bool transactional)
{
    TSTAT_ASSERT(queue_ != nullptr, "orderDemotion without a queue");
    if (inFlight_.contains(base)) {
        return false;
    }
    if (!queue_->enqueueLeaf(base, huge, Tier::Slow, transactional)) {
        return false;
    }
    ++stats_.demotionsOrdered;
    if (tracer_) {
        tracer_->record(EventKind::PolicyDemote, now, base, huge);
    }
    const std::uint64_t bytes =
        huge ? kPageSize2M : static_cast<std::uint64_t>(kPageSize4K);
    inFlight_[base] = OrderDir::Demote;
    inFlightDemoteBytes_ += bytes;
    return true;
}

bool
TieringPolicy::orderPromotion(Addr base, bool huge, Ns now,
                              bool transactional, bool retain)
{
    TSTAT_ASSERT(queue_ != nullptr,
                 "orderPromotion without a queue");
    if (inFlight_.contains(base)) {
        return false;
    }
    if (!queue_->enqueueLeaf(base, huge, Tier::Fast, transactional,
                             retain)) {
        return false;
    }
    ++stats_.promotionsOrdered;
    if (tracer_) {
        tracer_->record(EventKind::PolicyPromote, now, base, huge);
    }
    const std::uint64_t bytes =
        huge ? kPageSize2M : static_cast<std::uint64_t>(kPageSize4K);
    inFlight_[base] = OrderDir::Promote;
    inFlightPromoteBytes_ += bytes;
    return true;
}

bool
TieringPolicy::orderRunDemotion(Addr base, unsigned pages, Ns now)
{
    TSTAT_ASSERT(queue_ != nullptr,
                 "orderRunDemotion without a queue");
    for (unsigned i = 0; i < pages; ++i) {
        if (inFlight_.contains(base + i * kPageSize4K)) {
            return false;
        }
    }
    if (!queue_->enqueueRun(base, pages, Tier::Slow)) {
        return false;
    }
    stats_.demotionsOrdered += pages;
    if (tracer_) {
        // One decision event for the whole run; the value-free
        // per-leaf record appears as each completion lands.
        tracer_->record(EventKind::PolicyDemote, now, base, false,
                        pages);
    }
    for (unsigned i = 0; i < pages; ++i) {
        inFlight_[base + i * kPageSize4K] = OrderDir::Demote;
    }
    inFlightDemoteBytes_ +=
        static_cast<std::uint64_t>(pages) * kPageSize4K;
    return true;
}

std::uint64_t
TieringPolicy::orderedColdBytes() const
{
    const std::uint64_t placed =
        placedBytes_ + inFlightDemoteBytes_;
    return placed >= inFlightPromoteBytes_
               ? placed - inFlightPromoteBytes_
               : 0;
}

std::uint64_t
TieringPolicy::coldBytes() const
{
    return placedHuge_.size() * kPageSize2M +
           placedBase_.size() * kPageSize4K;
}

Ns
TieringPolicy::takeOverhead()
{
    const Ns out = pendingOverhead_;
    pendingOverhead_ = 0;
    return out;
}

std::uint64_t
TieringPolicy::placementBudgetBytes() const
{
    return static_cast<std::uint64_t>(
        params_.coldFraction *
        static_cast<double>(ctxSpace_.rssBytes()));
}

bool
TieringPolicy::placePage(Addr base, bool huge, Ns now)
{
    ++stats_.demotionsOrdered;
    if (tracer_) {
        tracer_->record(EventKind::PolicyDemote, now, base, huge);
    }
    return movePage(base, huge, Tier::Slow, now, true);
}

bool
TieringPolicy::promotePage(Addr base, bool huge, Ns now)
{
    ++stats_.promotionsOrdered;
    if (tracer_) {
        tracer_->record(EventKind::PolicyPromote, now, base, huge);
    }
    return movePage(base, huge, Tier::Fast, now, true);
}

bool
TieringPolicy::movePage(Addr base, bool huge, Tier to, Ns now,
                        bool chargeTrap)
{
    const MigrateResult res = ctxMigrator_.migrate(base, to, now);
    chargeOverhead(res.cost);
    if (!res.moved) {
        ++stats_.placementFailures;
        return false;
    }
    // Poison after the move: the fault latency is the slow-access
    // emulation, and its counter feeds fault-driven promotion.
    const Ns trap_cost = to == Tier::Slow ? ctxTrap_.poison(base)
                                          : ctxTrap_.unpoison(base);
    if (chargeTrap) {
        chargeOverhead(trap_cost);
    }
    std::unordered_set<Addr> &placed = huge ? placedHuge_ : placedBase_;
    const std::uint64_t bytes =
        huge ? kPageSize2M : static_cast<std::uint64_t>(kPageSize4K);
    if (to == Tier::Slow) {
        placed.insert(base);
        placedBytes_ += bytes;
    } else {
        placed.erase(base);
        placedBytes_ -= bytes;
    }
    return true;
}

void
TieringPolicy::registerMetrics(MetricRegistry &registry)
{
    const std::string prefix = metricPrefix(name());
    registry.addCallback(prefix + ".ticks", [this] {
        return static_cast<double>(stats_.ticks);
    });
    registry.addCallback(prefix + ".decision_periods", [this] {
        return static_cast<double>(stats_.decisionPeriods);
    });
    registry.addCallback(prefix + ".demotions_ordered", [this] {
        return static_cast<double>(stats_.demotionsOrdered);
    });
    registry.addCallback(prefix + ".promotions_ordered", [this] {
        return static_cast<double>(stats_.promotionsOrdered);
    });
    registry.addCallback(prefix + ".placement_failures", [this] {
        return static_cast<double>(stats_.placementFailures);
    });
    registry.addCallback(prefix + ".overhead_ns", [this] {
        return static_cast<double>(stats_.overheadTime);
    });
    registry.addCallback(prefix + ".cold_bytes", [this] {
        return static_cast<double>(coldBytes());
    });
}

} // namespace thermostat
