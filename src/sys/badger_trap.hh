/**
 * @file
 * BadgerTrap: PTE-poisoning fault intercept (Gandhi et al., CAN'14),
 * as used by Thermostat for page access counting (paper Sec 3.3).
 *
 * Poisoning sets reserved bit 51 in a leaf PTE and shoots down the
 * TLB entry.  The next access misses the TLB, the hardware walk
 * loads the poisoned PTE and raises a reserved-bit protection fault.
 * The handler counts the access, installs a (temporary) valid
 * translation in the TLB and leaves the PTE poisoned, so the page
 * faults again on its next TLB miss.  Fault counts are therefore a
 * proxy for TLB misses, which for cold pages track LLC misses.
 */

#ifndef THERMOSTAT_SYS_BADGER_TRAP_HH
#define THERMOSTAT_SYS_BADGER_TRAP_HH

#include <cstdint>
#include <vector>

#include "common/page_counters.hh"
#include "common/types.hh"
#include "obs/event_trace.hh"
#include "tlb/tlb.hh"
#include "vm/address_space.hh"

namespace thermostat
{

class MetricRegistry;

/** BadgerTrap cost/config knobs. */
struct BadgerTrapConfig
{
    /**
     * End-to-end fault latency as seen by the faulting access.  The
     * paper measures ~1us for the in-guest handler and notes that
     * value doubles as a slow-memory emulator; a bare counting
     * handler (no emulation) is a few hundred ns.
     */
    Ns faultLatency = 1000;

    /** Cost of poisoning/unpoisoning one PTE (incl. shootdown). */
    Ns poisonCost = 300;
};

/** Aggregate counters. */
struct BadgerTrapStats
{
    Count faults = 0;          //!< handler invocations (unweighted)
    Count weightedFaults = 0;  //!< represented real accesses
    Count poisons = 0;
    Count unpoisons = 0;
    Ns handlerTime = 0;        //!< total fault latency charged
    Ns maintenanceTime = 0;    //!< poison/unpoison cost charged
};

/**
 * The fault intercept and per-page access counters.
 *
 * Pages are keyed by virtual base address (4KB- or 2MB-aligned
 * depending on the leaf size); Thermostat poisons split 4KB pages
 * while profiling and whole 2MB pages while they live in slow
 * memory (mis-classification monitoring, Sec 3.5).
 *
 * The hot entry points (onPoisonFault from the timing stream,
 * recordAccess from the profiling stream) are lane-sharded: each
 * machine lane owns its own fault counters and SoA page-count shard
 * (common/page_counters.hh), so concurrent lane workers never share
 * mutable state and the merged view is a lane-ordered sum.  The
 * control path (poison/unpoison, called only from serial epoch
 * phases) keeps its own counters.
 */
class BadgerTrap
{
  public:
    BadgerTrap(AddressSpace &space, TlbShards &tlb,
               const BadgerTrapConfig &config = {});

    /**
     * Poison the leaf mapping @p page_base (must be mapped).  Resets
     * the page's fault counter and invalidates its TLB entries.
     * @return maintenance cost in ns.
     */
    Ns poison(Addr page_base);

    /** Remove poison and stop counting; keeps the final count. */
    Ns unpoison(Addr page_base);

    /** Whether the leaf at @p page_base is currently poisoned. */
    bool isPoisoned(Addr page_base);

    /**
     * The MMU calls this when a walk hits a poisoned leaf.  Charges
     * the handler latency; counting happens via recordAccess() so
     * that count granularity is independent of the timing stream.
     * @param page_base Base address of the faulting page.
     * @param weight Real accesses represented by this sampled access.
     * @return fault latency to charge the access.
     */
    Ns onPoisonFault(Addr page_base, Count weight = 1);

    /**
     * Account @p weight accesses against a poisoned page's counter.
     * Driven by the profiling stream (see Simulation): the net
     * effect matches the paper's counting, where every TLB miss to
     * a poisoned page is observed.
     */
    void recordAccess(Addr page_base, Count weight);

    /** Accumulated (weighted) fault count for a page. */
    Count faultCount(Addr page_base) const;

    /** Reset one page's counter (e.g. at a period boundary). */
    void resetCount(Addr page_base);

    /** Reset every counter. */
    void resetAllCounts();

    /** Lane-merged counters (by value: the sum over all lanes). */
    BadgerTrapStats stats() const;
    const BadgerTrapConfig &config() const { return config_; }

    /**
     * Attach a lifecycle tracer: poison()/unpoison() emit
     * PagePoisoned/PageUnpoisoned stamped with the tracer's ambient
     * simulated time (these APIs carry no timestamp).
     */
    void setTracer(EventTracer *tracer) { tracer_ = tracer; }

    /** Expose the counters under "<prefix>." in @p registry. */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /** Number of pages currently tracked (poisoned at some point). */
    std::size_t trackedPages() const;

    /**
     * One machine lane's mutable hot-path state, on whole cache
     * lines so neighbouring lanes' counters never share one.
     */
    struct alignas(kCacheLineBytes) LaneState
    {
        Count faults = 0;         // shard: lane-local
        Count weightedFaults = 0; // shard: lane-local
        Ns handlerTime = 0;       // shard: lane-local
        PageCounterShard counts;
    };
    static_assert(sizeof(LaneState) % kCacheLineBytes == 0,
                  "adjacent trap lane slices must not share a cache "
                  "line");

    /** Lane @p lane's slice (layout tests; merged views above). */
    const LaneState &lane(unsigned lane) const { return lanes_[lane]; }

  private:
    AddressSpace &space_; // shard: read-only
    TlbShards &tlb_; // shard: read-only
    BadgerTrapConfig config_; // shard: read-only
    // shard: serial-only
    BadgerTrapStats controlStats_; //!< serial-phase counters only
    EventTracer *tracer_ = nullptr; // shard: serial-only
    /**
     * kMachineLanes slices.  Heap storage keeps the trap (and the
     * Machine holding it) free of over-alignment.
     */
    std::vector<LaneState> lanes_;
};

} // namespace thermostat

#endif // THERMOSTAT_SYS_BADGER_TRAP_HH
