#include "policy/remap_policy.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "migrate/migration_queue.hh"
#include "obs/metrics.hh"

namespace thermostat
{

namespace
{
const std::string kName = "remap";
} // namespace

RemapPolicy::RemapPolicy(const PolicyContext &ctx)
    : TieringPolicy(ctx)
{
    TSTAT_ASSERT(ctx.queue != nullptr,
                 "remap requires the migration queue");
    ctx.queue->activate();
}

const std::string &
RemapPolicy::name() const
{
    return kName;
}

void
RemapPolicy::onProfiledAccess(Addr base, bool huge, bool write,
                              Count weight, std::uint64_t seq)
{
    (void)huge;
    (void)write;
    (void)seq;
    leafWindow_[base] += weight;
    blockWindow_[alignDown2M(base)] += weight;
}

void
RemapPolicy::tick(Ns now)
{
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
RemapPolicy::runPeriod(Ns now)
{
    ++stats_.decisionPeriods;
    const double period_sec =
        static_cast<double>(now - lastDecision_) /
        static_cast<double>(kNsPerSec);
    const double hot_rate = params().promoteRateThreshold;

    // Promotion pass: placed leaves that crossed the hot threshold
    // this window, hottest first, batch-bounded.
    struct Hot
    {
        Addr base;
        bool huge;
        Count count;
    };
    std::vector<Hot> hot;
    const auto consider = [&](Addr base, bool huge) {
        const Count *count = leafWindow_.find(base);
        if (count == nullptr || hasInFlight(base)) {
            return;
        }
        if (static_cast<double>(*count) / period_sec >= hot_rate) {
            hot.push_back({base, huge, *count});
        }
    };
    for (const Addr base : placedHuge_) {
        consider(base, true);
    }
    for (const Addr base : placedBase_) {
        consider(base, false);
    }
    std::sort(hot.begin(), hot.end(), [](const Hot &a, const Hot &b) {
        if (a.count != b.count) {
            return a.count > b.count;
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
        if (orderPromotion(h.base, h.huge, now)) {
            ++promoted;
        }
    }

    // Granularity pass over the unplaced leaves: classify each 2MB
    // block by its windowed rate, split the lukewarm ones, and
    // collect demotion candidates at the granularity they earned.
    std::vector<Addr> coldBlocks;  //!< fully idle huge leaves
    std::vector<Addr> splitCands;  //!< lukewarm huge leaves
    std::vector<Addr> idleLeaves;  //!< idle 4KB leaves
    space().pageTable().forEachLeaf([&](Addr base, Pte &, bool huge) {
        if (isPlaced(base) || hasInFlight(base)) {
            return;
        }
        if (huge) {
            const Count *block = blockWindow_.find(base);
            const Count count = block == nullptr ? 0 : *block;
            if (count == 0) {
                coldBlocks.push_back(base);
            } else if (static_cast<double>(count) / period_sec <
                       hot_rate) {
                splitCands.push_back(base);
            }
            return;
        }
        if (!leafWindow_.contains(base)) {
            idleLeaves.push_back(base);
        }
    });
    std::sort(coldBlocks.begin(), coldBlocks.end());
    std::sort(splitCands.begin(), splitCands.end());
    std::sort(idleLeaves.begin(), idleLeaves.end());

    // Lukewarm blocks split so the next window can tell their hot
    // subpages from their cold ones; the split itself is a software
    // operation billed like a migration's per-page cost.
    std::size_t split_count = 0;
    for (const Addr base : splitCands) {
        if (split_count >= params().promoteBatch) {
            break;
        }
        if (space().splitHuge(base)) {
            chargeOverhead(migrator().config().perPageSwCost);
            ++splits_;
            ++split_count;
        }
    }

    // Demotion pass, coarse granularity first (2MB blocks), then
    // idle 4KB leaves coalesced into up-to-16-page runs.
    const std::uint64_t budget = placementBudgetBytes();
    bool throttled = false;
    for (const Addr base : coldBlocks) {
        if (orderedColdBytes() + kPageSize2M > budget) {
            break;
        }
        if (queue()->busy()) {
            ++throttleSkips_;
            throttled = true;
            break;
        }
        if (orderDemotion(base, true, now)) {
            ++demotions2M_;
        }
    }
    std::size_t i = 0;
    while (!throttled && i < idleLeaves.size()) {
        // Extend the run while the leaves stay contiguous, up to
        // the 64KB granularity cap.
        unsigned pages = 1;
        while (pages < kRunPages && i + pages < idleLeaves.size() &&
               idleLeaves[i + pages] ==
                   idleLeaves[i] + pages * kPageSize4K) {
            ++pages;
        }
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(pages) * kPageSize4K;
        if (orderedColdBytes() + bytes > budget) {
            break;
        }
        if (queue()->busy()) {
            ++throttleSkips_;
            break;
        }
        if (pages > 1) {
            if (orderRunDemotion(idleLeaves[i], pages, now)) {
                ++demotionRuns_;
            }
        } else if (orderDemotion(idleLeaves[i], false, now)) {
            ++demotions4K_;
        }
        i += pages;
    }

    leafWindow_.clear();
    blockWindow_.clear();
}

void
RemapPolicy::registerMetrics(MetricRegistry &registry)
{
    TieringPolicy::registerMetrics(registry);
    const std::string prefix = metricPrefix(kName);
    registry.addCallback(prefix + ".throttle_skips", [this] {
        return static_cast<double>(throttleSkips_);
    });
    registry.addCallback(prefix + ".splits", [this] {
        return static_cast<double>(splits_);
    });
    registry.addCallback(prefix + ".demotions_2m", [this] {
        return static_cast<double>(demotions2M_);
    });
    registry.addCallback(prefix + ".demotion_runs", [this] {
        return static_cast<double>(demotionRuns_);
    });
    registry.addCallback(prefix + ".demotions_4k", [this] {
        return static_cast<double>(demotions4K_);
    });
}

} // namespace thermostat
