#include "migrate/transaction_engine.hh"

#include <cmath>

#include "common/logging.hh"
#include "obs/event_trace.hh"
#include "obs/metrics.hh"

namespace thermostat
{

TransactionEngine::TransactionEngine(AddressSpace &space,
                                     PageMigrator &migrator)
    : space_(space), migrator_(migrator)
{
}

Ns
TransactionEngine::shadowCopyCost(std::uint64_t bytes) const
{
    // Same cost model as PageMigrator::copyCost: the shadow copy
    // rides the identical inter-tier link.
    const MigrationConfig &config = migrator_.config();
    const double sec =
        static_cast<double>(bytes) / config.copyBandwidthBytesPerSec;
    return config.perPageSwCost +
           static_cast<Ns>(std::llround(sec * kNsPerSec));
}

void
TransactionEngine::releaseShadow(const ShadowEntry &entry,
                                 std::uint64_t bytes)
{
    TieredMemory &memory = space_.memory();
    if (entry.huge) {
        memory.freeHuge(entry.pfn);
    } else {
        memory.freeBase(entry.pfn);
    }
    memory.recordShadowRelease(entry.tier, bytes);
}

bool
TransactionEngine::begin(Addr base, bool huge, Tier target, Ns now,
                         Ns *cost)
{
    TSTAT_ASSERT(!ledger_.contains(base),
                 "transaction already open on %#lx",
                 static_cast<unsigned long>(base));
    TieredMemory &memory = space_.memory();
    const std::uint64_t bytes = huge ? kPageSize2M : kPageSize4K;
    const Count line_writes_per_frame =
        static_cast<Count>(kPageSize4K / 64);

    std::optional<Pfn> alloc =
        huge ? memory.allocHuge(target) : memory.allocBase(target);
    if (!alloc) {
        return false; // target tier full; caller treats as refusal
    }
    const Pfn shadow = *alloc;

    // Full shadow copy: wear on every shadow frame, copy time
    // charged.  Deliberately *not* tier migration traffic -- the
    // page has not moved; the audited traffic flows at commit.
    const unsigned frames = huge ? kSubpagesPerHuge : 1u;
    for (unsigned i = 0; i < frames; ++i) {
        memory.tier(target).recordWear(shadow + i,
                                       line_writes_per_frame);
    }
    memory.recordShadowAlloc(target, bytes);
    ledger_[base] = {shadow, target, huge, false, false};
    ++stats_.begins;
    const std::uint64_t resident_twice = ledgerBytes(Tier::Fast) +
                                         ledgerBytes(Tier::Slow);
    if (resident_twice > stats_.shadowBytesPeak) {
        stats_.shadowBytesPeak = resident_twice;
    }
    *cost += shadowCopyCost(bytes);
    if (tracer_) {
        tracer_->record(EventKind::TransactionStarted, now, base,
                        huge, bytes);
    }
    return true;
}

void
TransactionEngine::markDirty(Addr base, Ns now)
{
    auto it = ledger_.find(base);
    if (it == ledger_.end()) {
        return;
    }
    if (it->value.replica) {
        // Writes invalidate read replicas immediately: the slow
        // copy is stale the moment the fast copy diverges.
        const std::uint64_t bytes =
            it->value.huge ? kPageSize2M : kPageSize4K;
        const ShadowEntry entry = it->value;
        ledger_.erase(base);
        releaseShadow(entry, bytes);
        ++stats_.replicasDropped;
        if (tracer_) {
            tracer_->record(EventKind::ReplicaDropped, now, base,
                            entry.huge, bytes);
        }
        return;
    }
    it->value.dirty = true;
}

bool
TransactionEngine::commit(Addr base, Ns now, Ns *cost)
{
    auto it = ledger_.find(base);
    TSTAT_ASSERT(it != ledger_.end(),
                 "commit without begin on %#lx",
                 static_cast<unsigned long>(base));
    TSTAT_ASSERT(!it->value.replica,
                 "commit on a retained replica %#lx",
                 static_cast<unsigned long>(base));
    const ShadowEntry entry = it->value;
    const std::uint64_t bytes =
        entry.huge ? kPageSize2M : kPageSize4K;
    ledger_.erase(base);

    // Dirty-revalidation: a write raced the copy, the shadow is
    // stale.  Roll back -- the page stays put, the copy wear from
    // begin() is the billed waste.
    if (entry.dirty) {
        releaseShadow(entry, bytes);
        ++stats_.aborts;
        ++stats_.dirtyAborts;
        if (tracer_) {
            tracer_->record(EventKind::TransactionAborted, now, base,
                            entry.huge, bytes);
        }
        return false;
    }

    // Clean: release the shadow first (making room in the target
    // tier), then issue the audited move through the migrator.  The
    // modeled device already holds the data, but the page-table
    // rewire, TLB/LLC invalidation and traffic accounting are
    // exactly a migration and must flow through the audited path.
    releaseShadow(entry, bytes);
    const MigrateResult res = migrator_.migrate(base, entry.tier, now);
    *cost += res.cost;
    if (!res.moved) {
        ++stats_.commitFailures;
        return false;
    }
    ++stats_.commits;
    if (tracer_) {
        tracer_->record(EventKind::TransactionCommitted, now, base,
                        entry.huge, bytes);
    }
    return true;
}

bool
TransactionEngine::retainReplica(Addr base, bool huge, Ns now)
{
    TSTAT_ASSERT(!ledger_.contains(base),
                 "replica over an open entry %#lx",
                 static_cast<unsigned long>(base));
    TieredMemory &memory = space_.memory();
    std::optional<Pfn> alloc =
        huge ? memory.allocHuge(Tier::Slow)
             : memory.allocBase(Tier::Slow);
    if (!alloc) {
        return false;
    }
    const std::uint64_t bytes = huge ? kPageSize2M : kPageSize4K;
    memory.recordShadowAlloc(Tier::Slow, bytes);
    ledger_[base] = {*alloc, Tier::Slow, huge, false, true};
    ++stats_.replicasRetained;
    if (tracer_) {
        tracer_->record(EventKind::ReplicaRetained, now, base, huge,
                        bytes);
    }
    return true;
}

bool
TransactionEngine::hasReplica(Addr base) const
{
    const auto it = ledger_.find(base);
    return it != ledger_.end() && it->value.replica &&
           !it->value.dirty;
}

void
TransactionEngine::consumeReplica(Addr base, Ns now)
{
    auto it = ledger_.find(base);
    TSTAT_ASSERT(it != ledger_.end() && it->value.replica,
                 "no replica to consume at %#lx",
                 static_cast<unsigned long>(base));
    const ShadowEntry entry = it->value;
    const std::uint64_t bytes =
        entry.huge ? kPageSize2M : kPageSize4K;
    ledger_.erase(base);
    releaseShadow(entry, bytes);
    ++stats_.replicasConsumed;
    if (tracer_) {
        tracer_->record(EventKind::ReplicaDropped, now, base,
                        entry.huge, bytes);
    }
}

std::uint64_t
TransactionEngine::ledgerBytes(Tier t) const
{
    std::uint64_t total = 0;
    for (const auto &slot : ledger_) {
        if (slot.value.tier == t) {
            total += slot.value.huge ? kPageSize2M : kPageSize4K;
        }
    }
    return total;
}

Count
TransactionEngine::verifyLedger()
{
    Count violations = 0;
    const TieredMemory &memory = space_.memory();
    for (const auto &slot : ledger_) {
        if (memory.tierOf(slot.value.pfn) != slot.value.tier) {
            ++violations;
        }
    }
    if (ledgerBytes(Tier::Fast) != memory.shadowBytes(Tier::Fast)) {
        ++violations;
    }
    if (ledgerBytes(Tier::Slow) != memory.shadowBytes(Tier::Slow)) {
        ++violations;
    }
    stats_.ledgerViolations += violations;
    return violations;
}

void
TransactionEngine::registerMetrics(MetricRegistry &registry,
                                   const std::string &prefix) const
{
    registry.addCallback(prefix + ".begins", [this] {
        return static_cast<double>(stats_.begins);
    });
    registry.addCallback(prefix + ".commits", [this] {
        return static_cast<double>(stats_.commits);
    });
    registry.addCallback(prefix + ".aborts", [this] {
        return static_cast<double>(stats_.aborts);
    });
    registry.addCallback(prefix + ".dirty_aborts", [this] {
        return static_cast<double>(stats_.dirtyAborts);
    });
    registry.addCallback(prefix + ".commit_failures", [this] {
        return static_cast<double>(stats_.commitFailures);
    });
    registry.addCallback(prefix + ".replicas_retained", [this] {
        return static_cast<double>(stats_.replicasRetained);
    });
    registry.addCallback(prefix + ".replicas_dropped", [this] {
        return static_cast<double>(stats_.replicasDropped);
    });
    registry.addCallback(prefix + ".replicas_consumed", [this] {
        return static_cast<double>(stats_.replicasConsumed);
    });
    registry.addCallback(prefix + ".shadow_bytes_peak", [this] {
        return static_cast<double>(stats_.shadowBytesPeak);
    });
    registry.addCallback(prefix + ".ledger_violations", [this] {
        return static_cast<double>(stats_.ledgerViolations);
    });
}

} // namespace thermostat
