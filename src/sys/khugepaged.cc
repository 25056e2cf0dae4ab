#include "sys/khugepaged.hh"

#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"

namespace thermostat
{

Khugepaged::Khugepaged(AddressSpace &space, TlbShards &tlb,
                       const KhugepagedConfig &config)
    : space_(space), tlb_(tlb), config_(config)
{
}

void
Khugepaged::tick(Ns now)
{
    if (tracer_) {
        tracer_->setSimTime(now);
    }
    while (now >= nextPass_) {
        runPass();
        nextPass_ += config_.scanPeriod;
    }
}

unsigned
Khugepaged::runPass()
{
    PhaseScope pscope(profiler_, "khugepaged_pass");
    ++stats_.passes;

    // Gather the 2MB-aligned ranges that currently hold 4KB leaves.
    std::unordered_set<Addr> candidates;
    std::unordered_set<Addr> poisoned_ranges;
    space_.pageTable().forEachLeaf(
        [&](Addr base, Pte &pte, bool huge) {
            if (huge) {
                return;
            }
            const Addr range = alignDown2M(base);
            candidates.insert(range);
            if (pte.poisoned()) {
                // A poisoned subpage means the range is under
                // active monitoring; leave it alone, like
                // khugepaged skips pages with special PTE bits.
                poisoned_ranges.insert(range);
            }
        });

    std::vector<Addr> ordered(candidates.begin(), candidates.end());
    std::sort(ordered.begin(), ordered.end());

    unsigned collapsed = 0;
    for (const Addr range : ordered) {
        ++stats_.rangesScanned;
        stats_.totalCost += config_.perRangeCost;
        if (collapsed >= config_.maxCollapsesPerPass) {
            break;
        }
        if (poisoned_ranges.find(range) != poisoned_ranges.end()) {
            continue;
        }
        if (skip_ && skip_(range)) {
            continue;
        }
        // collapseHuge() enforces the real preconditions: all 512
        // present, physically contiguous, uniform flags.
        if (space_.collapseHuge(range)) {
            tlb_.invalidatePage(range);
            stats_.totalCost += config_.perCollapseCost;
            ++stats_.collapses;
            ++collapsed;
            if (tracer_) {
                tracer_->record(EventKind::PageCollapsed,
                                tracer_->simTime(), range, true);
            }
        }
    }
    return collapsed;
}

void
Khugepaged::registerMetrics(MetricRegistry &registry,
                            const std::string &prefix) const
{
    registry.addCallback(prefix + ".passes", [this] {
        return static_cast<double>(stats_.passes);
    });
    registry.addCallback(prefix + ".ranges_scanned", [this] {
        return static_cast<double>(stats_.rangesScanned);
    });
    registry.addCallback(prefix + ".collapses", [this] {
        return static_cast<double>(stats_.collapses);
    });
    registry.addCallback(prefix + ".total_cost_ns", [this] {
        return static_cast<double>(stats_.totalCost);
    });
}

} // namespace thermostat
