#include "policy/nomad_policy.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "migrate/migration_queue.hh"
#include "obs/metrics.hh"

namespace thermostat
{

namespace
{
const std::string kName = "nomad";
} // namespace

NomadPolicy::NomadPolicy(const PolicyContext &ctx)
    : TieringPolicy(ctx)
{
    TSTAT_ASSERT(ctx.queue != nullptr && ctx.transactions != nullptr,
                 "nomad requires the migration queue");
    ctx.queue->activate();
    ctx.transactions->activate();
}

const std::string &
NomadPolicy::name() const
{
    return kName;
}

void
NomadPolicy::onProfiledAccess(Addr base, bool huge, bool write,
                              Count weight, std::uint64_t seq)
{
    (void)huge;
    WindowEntry &entry = window_[base];
    if (write) {
        entry.writes += weight;
        // Dirty-revalidation feed: a write aborts any open
        // transaction on the page and drops its read replica, in
        // draw order at the barrier.
        if (transactions()->inLedger(base)) {
            dirtyLogs_[laneOf(base)].writes.push_back({seq, base});
        }
    } else {
        entry.reads += weight;
    }
}

void
NomadPolicy::joinAccessFeedback()
{
    // Merge the lanes' logs, each already in seq order.  Replica
    // drops free shadow frames onto LIFO free lists and emit events,
    // so draw order is what keeps them identical at every shard
    // count.
    std::array<std::size_t, kMachineLanes> next{};
    for (;;) {
        const DirtyWrite *first = nullptr;
        unsigned from = 0;
        for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
            const std::vector<DirtyWrite> &writes =
                dirtyLogs_[lane].writes;
            if (next[lane] < writes.size() &&
                (first == nullptr ||
                 writes[next[lane]].seq < first->seq)) {
                first = &writes[next[lane]];
                from = lane;
            }
        }
        if (first == nullptr) {
            break;
        }
        transactions()->markDirty(first->base, nowHint_);
        ++next[from];
    }
    for (DirtyLog &log : dirtyLogs_) {
        log.writes.clear();
    }
}

void
NomadPolicy::tick(Ns now)
{
    nowHint_ = now;
    ++stats_.ticks;
    if (now < nextDecision_) {
        return;
    }
    applyQueueCompletions();
    if (now > 0) {
        runPeriod(now);
    }
    lastDecision_ = now;
    nextDecision_ = now + params().decisionPeriod;
}

void
NomadPolicy::runPeriod(Ns now)
{
    ++stats_.decisionPeriods;
    const double period_sec =
        static_cast<double>(now - lastDecision_) /
        static_cast<double>(kNsPerSec);

    // Promotion pass: placed pages that turned hot this window,
    // hottest first, bounded by the per-period batch.  Windows with
    // zero writes mark the page read-mostly: the promotion retains
    // the slow copy as a replica.
    struct Hot
    {
        Addr base;
        bool huge;
        Count reads;
        Count writes;
    };
    std::vector<Hot> hot;
    const auto consider = [&](Addr base, bool huge) {
        const WindowEntry *entry = window_.find(base);
        if (entry == nullptr || hasInFlight(base)) {
            return;
        }
        const Count total = entry->reads + entry->writes;
        if (static_cast<double>(total) / period_sec >=
            params().promoteRateThreshold) {
            hot.push_back({base, huge, entry->reads, entry->writes});
        }
    };
    for (const Addr base : placedHuge_) {
        consider(base, true);
    }
    for (const Addr base : placedBase_) {
        consider(base, false);
    }
    std::sort(hot.begin(), hot.end(), [](const Hot &a, const Hot &b) {
        const Count at = a.reads + a.writes;
        const Count bt = b.reads + b.writes;
        if (at != bt) {
            return at > bt;
        }
        return a.base < b.base;
    });
    std::size_t promoted = 0;
    for (const Hot &h : hot) {
        if (promoted >= params().promoteBatch) {
            break;
        }
        if (queue()->busy()) {
            ++throttleSkips_;
            break;
        }
        const bool retain = h.writes == 0;
        if (orderPromotion(h.base, h.huge, now, true, retain)) {
            ++promoted;
        }
    }

    // Demotion pass: refill the budget with pages the window never
    // saw, in address order.  Every demotion is transactional; the
    // queue downgrades replica-backed pages to shadow-free moves on
    // its own.
    struct Cold
    {
        Addr base;
        bool huge;
        std::uint64_t bytes;
    };
    std::vector<Cold> cold;
    space().pageTable().forEachLeaf([&](Addr base, Pte &, bool huge) {
        if (isPlaced(base) || hasInFlight(base) ||
            window_.contains(base)) {
            return;
        }
        cold.push_back(
            {base, huge,
             huge ? kPageSize2M
                  : static_cast<std::uint64_t>(kPageSize4K)});
    });
    std::sort(cold.begin(), cold.end(),
              [](const Cold &a, const Cold &b) {
                  return a.base < b.base;
              });
    const std::uint64_t budget = placementBudgetBytes();
    for (const Cold &c : cold) {
        if (orderedColdBytes() + c.bytes > budget) {
            break;
        }
        if (queue()->busy()) {
            ++throttleSkips_;
            break;
        }
        orderDemotion(c.base, c.huge, now, true);
    }
    window_.clear();
}

void
NomadPolicy::registerMetrics(MetricRegistry &registry)
{
    TieringPolicy::registerMetrics(registry);
    registry.addCallback(metricPrefix(kName) + ".throttle_skips",
                         [this] {
                             return static_cast<double>(
                                 throttleSkips_);
                         });
}

} // namespace thermostat
