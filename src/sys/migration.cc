#include "sys/migration.hh"

#include <cmath>
#include <optional>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"

namespace thermostat
{

PageMigrator::PageMigrator(AddressSpace &space, TlbShards &tlb,
                           LlcShards *llc,
                           const MigrationConfig &config)
    : space_(space), tlb_(tlb), llc_(llc), config_(config)
{
}

Ns
PageMigrator::copyCost(std::uint64_t bytes) const
{
    const double sec =
        static_cast<double>(bytes) / config_.copyBandwidthBytesPerSec;
    return config_.perPageSwCost +
           static_cast<Ns>(std::llround(sec * kNsPerSec));
}

MigrateResult
PageMigrator::migrate(Addr vaddr, Tier target, Ns now)
{
    PhaseScope pscope(profiler_, "migrate");
    MigrateResult result;
    WalkResult wr = space_.pageTable().walk(vaddr);
    TSTAT_ASSERT(wr.mapped(), "migrate: unmapped page %#lx",
                 static_cast<unsigned long>(vaddr));

    TieredMemory &memory = space_.memory();
    const Pfn old_pfn = wr.pte->pfn();
    const Tier source = memory.tierOf(old_pfn);
    if (source == target) {
        return result; // already placed; nothing to do
    }

    const bool huge = wr.huge;
    const std::uint64_t bytes = huge ? kPageSize2M : kPageSize4K;

    // Admission gate (host arbiter).  Checked after the same-tier
    // early return so no-op requests never consume budget, and
    // before any allocation so a denial has zero side effects.
    if (admission_ != nullptr &&
        !admission_->admit(vaddr, target, bytes, now)) {
        ++stats_.admissionDenials;
        stats_.bytesDenied += bytes;
        result.denied = true;
        if (tracer_) {
            tracer_->record(EventKind::MigrationThrottled, now,
                            vaddr, huge, bytes);
        }
        return result;
    }

    // Allocate the destination frame(s).
    const std::optional<Pfn> alloc =
        huge ? memory.allocHuge(target) : memory.allocBase(target);
    if (!alloc) {
        ++stats_.failedAllocs;
        if (tracer_) {
            tracer_->record(EventKind::MigrationFailed, now, vaddr, huge,
                            bytes);
        }
        return result;
    }
    const Pfn new_pfn = *alloc;

    // Copy traffic: read from source, write to destination.  Device
    // wear from a full copy: 64B line writes per 4KB frame.
    const unsigned frames = huge ? kSubpagesPerHuge : 1u;
    const Count line_writes_per_frame =
        static_cast<Count>(kPageSize4K / 64);
    memory.tier(source).recordMigrationOut(bytes);
    memory.tier(target).recordMigrationIn(bytes);
    for (unsigned i = 0; i < frames; ++i) {
        memory.tier(target).recordWear(new_pfn + i,
                                       line_writes_per_frame);
    }

    // Rewire the translation and invalidate stale cached state.
    space_.remapLeaf(vaddr, new_pfn);
    tlb_.invalidatePage(vaddr);
    if (llc_) {
        // Only the owning lane's slice ever cached these frames.
        llc_->lane(laneOf(vaddr)).invalidateFrames(old_pfn, frames);
    }

    // Release the old frame(s).
    if (huge) {
        memory.freeHuge(old_pfn);
    } else {
        memory.freeBase(old_pfn);
    }

    // Accounting.
    const bool demotion = target == Tier::Slow;
    if (demotion) {
        stats_.bytesDemoted += bytes;
        if (huge) {
            ++stats_.hugeDemotions;
        } else {
            ++stats_.baseDemotions;
        }
        demotionMeter_.record(now, bytes);
    } else {
        stats_.bytesPromoted += bytes;
        if (huge) {
            ++stats_.hugePromotions;
        } else {
            ++stats_.basePromotions;
        }
        promotionMeter_.record(now, bytes);
    }

    if (tracer_) {
        tracer_->record(demotion ? EventKind::PageDemoted
                                 : EventKind::PagePromoted,
                        now, vaddr, huge, bytes);
    }

    result.moved = true;
    result.cost = copyCost(bytes);
    stats_.totalCost += result.cost;
    return result;
}

void
PageMigrator::registerMetrics(MetricRegistry &registry,
                              const std::string &prefix) const
{
    registry.addCallback(prefix + ".huge_demotions", [this] {
        return static_cast<double>(stats_.hugeDemotions);
    });
    registry.addCallback(prefix + ".base_demotions", [this] {
        return static_cast<double>(stats_.baseDemotions);
    });
    registry.addCallback(prefix + ".huge_promotions", [this] {
        return static_cast<double>(stats_.hugePromotions);
    });
    registry.addCallback(prefix + ".base_promotions", [this] {
        return static_cast<double>(stats_.basePromotions);
    });
    registry.addCallback(prefix + ".bytes_demoted", [this] {
        return static_cast<double>(stats_.bytesDemoted);
    });
    registry.addCallback(prefix + ".bytes_promoted", [this] {
        return static_cast<double>(stats_.bytesPromoted);
    });
    registry.addCallback(prefix + ".failed_allocs", [this] {
        return static_cast<double>(stats_.failedAllocs);
    });
    registry.addCallback(prefix + ".total_cost_ns", [this] {
        return static_cast<double>(stats_.totalCost);
    });
    registry.addCallback(prefix + ".admission_denials", [this] {
        return static_cast<double>(stats_.admissionDenials);
    });
    registry.addCallback(prefix + ".bytes_denied", [this] {
        return static_cast<double>(stats_.bytesDenied);
    });
}

} // namespace thermostat
