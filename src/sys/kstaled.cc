#include "sys/kstaled.hh"

#include "obs/metrics.hh"
#include "obs/profiler.hh"

#include "common/logging.hh"

namespace thermostat
{

Kstaled::Kstaled(AddressSpace &space, TlbShards &tlb,
                 const KstaledConfig &config)
    : space_(space), tlb_(tlb), config_(config)
{
}

void
Kstaled::visitPage(Addr base, Pte &pte, ScanStats &stats)
{
    ++stats.scannedPtes;
    stats.cost += config_.perPteCost;
    PageIdleState &state = pageState_[base];
    if (pte.accessed()) {
        ++stats.accessedPtes;
        pte.clearAccessed();
        tlb_.invalidatePage(base);
        ++stats.shootdowns;
        stats.cost += config_.shootdownCost;
        state.idleScans = 0;
        ++state.hotStreak;
        ++state.totalAccessedScans;
    } else {
        ++state.idleScans;
        state.hotStreak = 0;
    }
}

ScanStats
Kstaled::scanAll()
{
    PhaseScope pscope(profiler_, "kstaled_scan");
    ScanStats stats;
    space_.pageTable().forEachLeaf(
        [this, &stats](Addr base, Pte &pte, bool) {
            visitPage(base, pte, stats);
        });
    totalCost_ += stats.cost;
    ++scanCount_;
    return stats;
}

ScanStats
Kstaled::scanPages(const std::vector<Addr> &pages)
{
    PhaseScope pscope(profiler_, "kstaled_scan");
    ScanStats stats;
    for (const Addr base : pages) {
        WalkResult wr = space_.pageTable().walk(base);
        if (!wr.mapped()) {
            continue;
        }
        visitPage(base, *wr.pte, stats);
    }
    totalCost_ += stats.cost;
    ++scanCount_;
    return stats;
}

bool
Kstaled::testAndClearAccessed(Addr page_base)
{
    WalkResult wr = space_.pageTable().walk(page_base);
    TSTAT_ASSERT(wr.mapped(), "testAndClearAccessed: unmapped page");
    totalCost_ += config_.perPteCost;
    if (!wr.pte->accessed()) {
        return false;
    }
    wr.pte->clearAccessed();
    tlb_.invalidatePage(page_base);
    totalCost_ += config_.shootdownCost;
    return true;
}

void
Kstaled::testAndClearRegion(Addr huge_base,
                            std::vector<Addr> &accessed)
{
    const PageTable::RegionLeaves leaves =
        space_.pageTable().regionLeaves(huge_base);
    TSTAT_ASSERT(leaves.ptEntries != nullptr,
                 "testAndClearRegion: region %#lx not split",
                 static_cast<unsigned long>(huge_base));
    for (unsigned i = 0; i < kSubpagesPerHuge; ++i) {
        Pte &pte = leaves.ptEntries[i];
        if (!pte.present()) {
            continue;
        }
        totalCost_ += config_.perPteCost;
        if (!pte.accessed()) {
            continue;
        }
        pte.clearAccessed();
        const Addr sub = huge_base + i * kPageSize4K;
        tlb_.invalidatePage(sub);
        totalCost_ += config_.shootdownCost;
        accessed.push_back(sub);
    }
}

ScanStats
Kstaled::clearSubpagesAfterSplit(Addr huge_base)
{
    ScanStats stats;
    // The region was just split, so its leaves are one dense PT
    // entry array: scan it directly instead of 512 cached walks.
    const PageTable::RegionLeaves leaves =
        space_.pageTable().regionLeaves(huge_base);
    if (leaves.ptEntries != nullptr) {
        for (unsigned i = 0; i < kSubpagesPerHuge; ++i) {
            Pte &pte = leaves.ptEntries[i];
            if (!pte.present()) {
                continue;
            }
            ++stats.scannedPtes;
            stats.cost += config_.perPteCost;
            if (pte.accessed()) {
                ++stats.accessedPtes;
                pte.clearAccessed();
            }
        }
    }
    tlb_.invalidatePage(huge_base);
    ++stats.shootdowns;
    stats.cost += config_.shootdownCost;
    totalCost_ += stats.cost;
    return stats;
}

PageIdleState
Kstaled::idleState(Addr page_base) const
{
    const auto it = pageState_.find(page_base);
    return it == pageState_.end() ? PageIdleState() : it->value;
}

bool
Kstaled::isHot(Addr page_base) const
{
    return idleState(page_base).hotStreak >= config_.hotConsecutiveScans;
}

double
Kstaled::hugeIdleFraction(unsigned min_idle_scans)
{
    std::uint64_t huge_total = 0;
    std::uint64_t huge_idle = 0;
    space_.pageTable().forEachLeaf(
        [&](Addr base, Pte &, bool huge) {
            if (!huge) {
                return;
            }
            ++huge_total;
            if (idleState(base).idleScans >= min_idle_scans) {
                ++huge_idle;
            }
        });
    return huge_total == 0 ? 0.0
                           : static_cast<double>(huge_idle) /
                                 static_cast<double>(huge_total);
}

void
Kstaled::reset()
{
    pageState_.clear();
}

void
Kstaled::registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const
{
    registry.addCallback(prefix + ".scan_count", [this] {
        return static_cast<double>(scanCount_);
    });
    registry.addCallback(prefix + ".total_cost_ns", [this] {
        return static_cast<double>(totalCost_);
    });
    registry.addCallback(prefix + ".tracked_pages", [this] {
        return static_cast<double>(pageState_.size());
    });
}

} // namespace thermostat
