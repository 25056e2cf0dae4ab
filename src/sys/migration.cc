#include "sys/migration.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
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
PageMigrator::copyCost(std::uint64_t bytes, double slowdown) const
{
    // slowdown == 1.0 except during an injected bandwidth
    // degradation episode (and 1.0 * sec is IEEE-exact, so the
    // fault-free cost is bit-identical to the pre-fault model).
    const double sec = slowdown * static_cast<double>(bytes) /
                       config_.copyBandwidthBytesPerSec;
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

    const unsigned frames = huge ? kSubpagesPerHuge : 1u;
    // Device wear from a full copy: 64B line writes per 4KB frame.
    const Count line_writes_per_frame =
        static_cast<Count>(kPageSize4K / 64);
    const double slowdown =
        faults_ != nullptr ? memory.slowCopySlowdown() : 1.0;

    // Single attempt in the fault-free path; with an injector
    // attached, transient failures retry with capped exponential
    // backoff (modeled as added migration cost, not simulated
    // wall-clock).
    const unsigned max_attempts =
        faults_ != nullptr ? config_.maxRetries + 1 : 1;
    bool alloc_starved = false;

    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        if (attempt > 1) {
            const Ns backoff =
                std::min(config_.backoffCapNs,
                         config_.backoffBaseNs << (attempt - 2));
            result.cost += backoff;
            stats_.backoffNs += backoff;
            ++stats_.retries;
            if (tracer_) {
                tracer_->record(EventKind::MigrationRetried, now,
                                vaddr, huge, attempt);
            }
        }

        // Allocate the destination frame(s), under possible
        // injected transient allocation pressure.
        std::optional<Pfn> alloc;
        if (faults_ != nullptr &&
            faults_->shouldFail(FaultSite::MigrationAlloc, now)) {
            ++stats_.injectedAllocFails;
        } else {
            alloc = huge ? memory.allocHuge(target)
                         : memory.allocBase(target);
        }
        if (!alloc) {
            alloc_starved = true;
            continue;
        }
        alloc_starved = false;
        const Pfn new_pfn = *alloc;

        // Injected torn copy: half the page was written to the
        // destination before the device gave up.  Roll back -- the
        // half-written frames go back to the allocator, the page
        // table still points at the intact source, and only the
        // wasted wear sticks.  (The aborted bytes deliberately do
        // not count as tier migration traffic: the lifecycle
        // auditor cross-checks that traffic against successful
        // demotions/promotions.)
        if (faults_ != nullptr &&
            faults_->shouldFail(FaultSite::MigrationCopy, now)) {
            const std::uint64_t copied = bytes / 2;
            const unsigned frames_written =
                huge ? frames / 2 : 1u;
            const Count lines = huge
                                    ? line_writes_per_frame
                                    : static_cast<Count>(copied / 64);
            for (unsigned i = 0; i < frames_written; ++i) {
                memory.tier(target).recordWear(new_pfn + i, lines);
            }
            if (huge) {
                memory.freeHuge(new_pfn);
            } else {
                memory.freeBase(new_pfn);
            }
            ++stats_.copyAborts;
            stats_.bytesAborted += copied;
            result.cost += copyCost(copied, slowdown);
            if (tracer_) {
                tracer_->record(EventKind::MigrationAborted, now,
                                vaddr, huge, copied);
            }
            continue;
        }

        // Copy traffic: read from source, write to destination.
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
        result.cost += copyCost(bytes, slowdown);
        stats_.totalCost += result.cost;
        return result;
    }

    // All attempts exhausted.
    if (alloc_starved) {
        ++stats_.failedAllocs;
    }
    if (tracer_) {
        tracer_->record(EventKind::MigrationFailed, now, vaddr, huge,
                        bytes);
    }
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
    registry.addCallback(prefix + ".retries", [this] {
        return static_cast<double>(stats_.retries);
    });
    registry.addCallback(prefix + ".copy_aborts", [this] {
        return static_cast<double>(stats_.copyAborts);
    });
    registry.addCallback(prefix + ".injected_alloc_fails", [this] {
        return static_cast<double>(stats_.injectedAllocFails);
    });
    registry.addCallback(prefix + ".bytes_aborted", [this] {
        return static_cast<double>(stats_.bytesAborted);
    });
    registry.addCallback(prefix + ".backoff_ns", [this] {
        return static_cast<double>(stats_.backoffNs);
    });
    registry.addCallback(prefix + ".admission_denials", [this] {
        return static_cast<double>(stats_.admissionDenials);
    });
    registry.addCallback(prefix + ".bytes_denied", [this] {
        return static_cast<double>(stats_.bytesDenied);
    });
}

} // namespace thermostat
