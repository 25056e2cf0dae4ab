/**
 * @file
 * Nomad-style transactional page migration (PAPERS.md).
 *
 * Nomad breaks Thermostat's assumption that a migration is an
 * exclusive, instantaneous move: a transactional migration first
 * copies the page into a *shadow* frame in the target tier (start),
 * leaves the page non-exclusively resident in both tiers for one
 * epoch, then revalidates that no write dirtied the source
 * (dirty-revalidation) before committing the move.  A dirty page
 * aborts: the shadow frame is discarded and only the wasted copy
 * wear sticks.
 *
 * The engine owns the shadow ledger: every open transaction and
 * every retained read-replica is one entry, and the per-tier ledger
 * byte totals must equal TieredMemory's shadow accounting at all
 * times (verifyLedger(), called by the simulation each epoch).
 * Committed moves are issued through the shared PageMigrator so the
 * lifecycle auditor's traffic cross-checks keep holding: the shadow
 * phase is pure *extra* device traffic (wear + copy cost), never a
 * substitute for the audited move.
 *
 * Read-mostly non-exclusive residency: after a clean promotion
 * commits, the caller may retain the slow-tier copy as a replica
 * (retainReplica()).  A replica-backed page can later be demoted
 * without a shadow-copy phase -- the data is already down there --
 * which is the modeled benefit of Nomad's non-exclusive tiering.
 * Any observed write invalidates the replica (markDirty()).
 */

#ifndef THERMOSTAT_MIGRATE_TRANSACTION_ENGINE_HH
#define THERMOSTAT_MIGRATE_TRANSACTION_ENGINE_HH

#include <cstdint>
#include <string>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "sys/migration.hh"
#include "vm/address_space.hh"

namespace thermostat
{

class EventTracer;
class MetricRegistry;

/** Transactional-migration accounting. */
struct TransactionStats
{
    Count begins = 0;        //!< shadow copies started
    Count commits = 0;       //!< clean revalidations that moved
    Count aborts = 0;        //!< all rollbacks
    Count dirtyAborts = 0;   //!< revalidation saw a write
    Count commitFailures = 0; //!< clean but the migrator refused
    Count replicasRetained = 0; //!< read-mostly copies kept
    Count replicasDropped = 0;  //!< replicas invalidated by writes
    Count replicasConsumed = 0; //!< shadow-free demotions they paid for
    std::uint64_t shadowBytesPeak = 0; //!< max bytes resident twice
    Count ledgerViolations = 0; //!< verifyLedger() mismatches
};

/**
 * The transactional mover.  One instance per simulation; inert (and
 * metric-silent about activity) until an opted-in policy calls
 * activate() -- the five legacy engines never touch it, so their
 * runs carry zero transaction state.
 */
class TransactionEngine
{
  public:
    TransactionEngine(AddressSpace &space, PageMigrator &migrator);

    void setTracer(EventTracer *tracer) { tracer_ = tracer; }

    /** Opt in (nomad does this in its constructor). */
    void activate() { active_ = true; }
    bool active() const { return active_; }

    /**
     * Phase 1 -- shadow-copy start.  Allocates shadow frame(s) for
     * the leaf at @p base in @p target, pays the copy (wear + cost
     * into @p cost) and opens a ledger entry: the page is now
     * resident in both tiers.  Returns false when the target tier
     * is full.
     */
    bool begin(Addr base, bool huge, Tier target, Ns now, Ns *cost);

    /**
     * A write landed on @p base: any open transaction will abort at
     * commit (dirty-revalidation) and any retained replica is
     * dropped immediately.
     */
    void markDirty(Addr base, Ns now);

    /**
     * Whether @p base has a ledger entry, i.e. whether markDirty()
     * would act on it.  Safe from the lanes: nothing writes the
     * ledger while they run.
     */
    bool inLedger(Addr base) const { return ledger_.contains(base); }

    /**
     * Phase 2 -- commit-or-abort.  Clean entries release the shadow
     * frame and issue the real move through the PageMigrator (the
     * audited path); dirty entries roll back.  Returns whether the
     * page actually moved.
     */
    bool commit(Addr base, Ns now, Ns *cost);

    /**
     * Keep the slow-tier copy of a just-promoted clean page as a
     * read replica (non-exclusive residency).  False when the slow
     * tier cannot hold it.
     */
    bool retainReplica(Addr base, bool huge, Ns now);

    /** Whether @p base has a live (clean) slow-tier replica. */
    bool hasReplica(Addr base) const;

    /**
     * Spend the replica backing @p base: frees the slow-tier copy so
     * a shadow-free demotion can land in its place.
     */
    void consumeReplica(Addr base, Ns now);

    /** Open transactions + live replicas, in bytes, for @p t. */
    std::uint64_t ledgerBytes(Tier t) const;

    /**
     * Cross-check the shadow ledger against TieredMemory's
     * non-exclusive residency accounting: per-tier byte totals must
     * match and every shadow frame must live in its recorded tier.
     * Returns the number of violations found (also accumulated in
     * stats().ledgerViolations).
     */
    Count verifyLedger();

    const TransactionStats &stats() const { return stats_; }

    /** Expose the counters under "<prefix>." in @p registry. */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

  private:
    /** One page resident in two tiers (open txn or read replica). */
    struct ShadowEntry
    {
        Pfn pfn = 0;        //!< shadow frame base
        Tier tier = Tier::Slow; //!< tier holding the shadow copy
        bool huge = false;
        bool dirty = false; //!< a write invalidated the copy
        bool replica = false; //!< retained post-commit read copy
    };

    Ns shadowCopyCost(std::uint64_t bytes) const;
    void releaseShadow(const ShadowEntry &entry,
                       std::uint64_t bytes);

    // Driven only from the queue's epoch step and the policy's
    // (serial) decision round and feedback barrier; lane workers
    // only look pages up in the ledger (inLedger).
    AddressSpace &space_;           // shard: serial-only
    PageMigrator &migrator_;        // shard: serial-only
    EventTracer *tracer_ = nullptr; // shard: serial-only
    bool active_ = false;           // shard: serial-only
    // shard: read-only while the lanes run (inLedger)
    FlatMap<Addr, ShadowEntry> ledger_;
    TransactionStats stats_;        // shard: serial-only
};

} // namespace thermostat

#endif // THERMOSTAT_MIGRATE_TRANSACTION_ENGINE_HH
