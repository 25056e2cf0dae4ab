/**
 * @file
 * The naive Accessed-bit placement policy Thermostat argues against
 * (paper Sec 1/2.1, Figure 1).
 *
 * kstaled-style scanning flags pages whose Accessed bit stayed clear
 * for an idle threshold (10s in Figure 1); this policy simply moves
 * every such page to slow memory.  It has no notion of access
 * *rate*, so it cannot bound the resulting slowdown -- the paper
 * measures >10% degradation for Redis -- and never promotes pages
 * back.  Placed pages are poisoned, so accesses to them cost the
 * emulated slow-memory latency (how Figure 1's degradation was
 * measured).
 */

#ifndef THERMOSTAT_CORE_IDLE_POLICY_HH
#define THERMOSTAT_CORE_IDLE_POLICY_HH

#include <cstdint>
#include <unordered_set>

#include "common/types.hh"
#include "sys/badger_trap.hh"
#include "sys/kstaled.hh"
#include "sys/migration.hh"
#include "vm/address_space.hh"

namespace thermostat
{

/** Idle-policy knobs. */
struct IdlePolicyConfig
{
    /** Time between Accessed-bit scans. */
    Ns scanPeriod = 2 * kNsPerSec;

    /** Consecutive idle scans before a page counts as cold. */
    unsigned idleScans = 5; // 5 x 2s = the paper's 10 seconds
};

/** Counters. */
struct IdlePolicyStats
{
    Count scans = 0;
    Count placed = 0;
};

/**
 * Periodic driver: scan, demote idle pages.  Call tick() at least
 * once per scan period.
 */
class IdlePagePolicy
{
  public:
    IdlePagePolicy(AddressSpace &space, Kstaled &kstaled,
                   PageMigrator &migrator, BadgerTrap &trap,
                   const IdlePolicyConfig &config = {});

    /** Advance to @p now; scans/placements happen on period ticks. */
    void tick(Ns now);

    const std::unordered_set<Addr> &placedPages() const
    {
        return placed_;
    }

    /**
     * Placed pages are 2MB leaves (the policy scans huge pages; 4KB
     * mappings are left alone like kstaled does).
     */
    std::uint64_t placedBytes() const
    {
        return placed_.size() * kPageSize2M;
    }

    /** Fraction of 2MB pages currently idle >= the threshold. */
    double idleFraction();

    const IdlePolicyStats &stats() const { return stats_; }
    const IdlePolicyConfig &config() const { return config_; }

  private:
    void scanAndPlace(Ns now);

    AddressSpace &space_;
    Kstaled &kstaled_;
    PageMigrator &migrator_;
    BadgerTrap &trap_;
    IdlePolicyConfig config_;
    IdlePolicyStats stats_;
    std::unordered_set<Addr> placed_;
    Ns nextScan_ = 0;
};

} // namespace thermostat

#endif // THERMOSTAT_CORE_IDLE_POLICY_HH
