/**
 * @file
 * The evaluation machine: cores' memory path over the two-tier
 * system (paper Sec 4.1 hardware, Sec 4.2 slow-memory emulation).
 *
 * Every memory reference flows TLB -> (page walk -> poison fault?)
 * -> LLC -> memory tier.  Two slow-memory operating modes:
 *
 *  - BadgerTrapEmu (paper's methodology): cold data physically sits
 *    in the slow NUMA zone but the device behaves like DRAM; the 1us
 *    poison-fault on each TLB miss to a cold page *is* the emulated
 *    slow access.
 *  - Device: a real slow device model; LLC misses to the slow tier
 *    pay its latency, and the poison fault only costs a bare
 *    counting handler.
 *
 * Alongside the actual latency, each access computes the latency it
 * would have had on the all-DRAM, unmonitored baseline, so a single
 * run yields the slowdown directly.
 */

#ifndef THERMOSTAT_SIM_MACHINE_HH
#define THERMOSTAT_SIM_MACHINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/llc.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/tiered_memory.hh"
#include "sys/badger_trap.hh"
#include "tlb/tlb.hh"
#include "vm/address_space.hh"
#include "vm/page_walker.hh"

namespace thermostat
{

class AccessSampler;
class MetricRegistry;

/** How slow memory is realized (paper Sec 4.2). */
enum class SlowEmuMode : std::uint8_t
{
    BadgerTrapEmu, //!< 1us fault per TLB miss emulates the device
    Device         //!< modeled device latency on LLC misses
};

/**
 * How accesses to monitored (poisoned) pages are observed (paper
 * Sec 3.3 and the Sec 6.1 hardware proposals).
 */
enum class CountingMode : std::uint8_t
{
    BadgerTrap, //!< reserved-bit fault on every TLB miss (software)
    CmBit,      //!< proposed "count miss" PTE bit: fault on LLC
                //!< miss, service overlapped with the memory access
    Pebs        //!< PEBS-style sampled records, no faults at all
};

/** Full machine configuration. */
struct MachineConfig
{
    TierConfig fastTier = TierConfig::dram(24ULL << 30);
    TierConfig slowTier = TierConfig::slow(24ULL << 30);
    TlbConfig l1Tlb{64, 4};
    TlbConfig l2Tlb{1024, 8};
    WalkerConfig walker;
    LlcConfig llc;
    BadgerTrapConfig trap;
    SlowEmuMode slowMode = SlowEmuMode::BadgerTrapEmu;
    CountingMode countingMode = CountingMode::BadgerTrap;

    /**
     * Visible cost of a CM-bit fault: the handler runs while the
     * memory access proceeds in parallel, so only a small residue
     * shows up on the critical path (Sec 6.1.1).
     */
    Ns cmFaultLatency = 150;

    /**
     * Memory-level parallelism: pipelineable latencies (walks, LLC,
     * DRAM) overlap by this factor; poison faults and the slow-tier
     * latency excess are serialized (pointer-chase-like).
     */
    double overlapFactor = 4.0;

    /** L2 TLB hit cost (L1 hits are free / hidden). */
    Ns l2TlbHitLatency = 7;

    bool thpEnabled = true;

    /**
     * Base address of the first mapped region (2MB aligned); 0
     * keeps the historical default.  The datacenter host assigns
     * each tenant machine a disjoint virtual window so address
     * isolation between guests is checkable, not assumed.
     */
    Addr addressBase = 0;
};

/** Per-access outcome. */
struct AccessOutcome
{
    Ns actualLatency = 0;   //!< with tiering + monitoring
    Ns baselineLatency = 0; //!< all-DRAM, no monitoring
    bool tlbMiss = false;
    bool llcMiss = false;
    bool poisonFault = false;
    bool huge = false;    //!< translated by a 2MB leaf
    bool sampled = false; //!< recorded by the access sampler
    Tier tier = Tier::Fast;
};

/** Machine-level accumulated counters. */
struct MachineStats
{
    Count accesses = 0;          //!< sampled bursts simulated
    Count lineAccesses = 0;      //!< line-level accesses simulated
    Count cmFaults = 0;          //!< CM-bit faults (CmBit mode)
    Count weightedAccesses = 0;  //!< real accesses represented
    Count weightedSlowAccesses = 0;
    Ns actualTime = 0;           //!< weighted actual memory time
    Ns baselineTime = 0;         //!< weighted baseline memory time
};

/**
 * Owns the memory system components and executes accesses.
 *
 * All mutable access-path state is partitioned by machine lane
 * (laneOf of the accessed virtual address): the TLB and LLC are
 * lane routers (TlbShards/LlcShards), the walker, machine counters
 * and deferred device-traffic deltas live in a per-lane LaneState,
 * and BadgerTrap and the sampler shard themselves internally.
 * access() may therefore be called concurrently for addresses in
 * *different* lanes; calls within one lane must stay ordered (the
 * simulation's lane workers guarantee this).  Because every merged
 * view is a lane-ordered reduction of lane-local state, results
 * depend only on the lane split -- never on how many workers
 * executed the lanes.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    /**
     * One machine lane's mutable access-path state.  Every access
     * writes its counters, so each lane's slice occupies whole cache
     * lines: neighbouring lanes run on different cores.
     */
    struct alignas(kCacheLineBytes) LaneState
    {
        explicit LaneState(const WalkerConfig &walker_config)
            : walker(walker_config)
        {
        }

        PageWalker walker;
        MachineStats stats;
        Count slowAccessWindow = 0; // shard: lane-local
        bool devicePending = false; // shard: lane-local
        /** Deferred device traffic, [0]=fast [1]=slow tier. */
        TierStats tierDelta[2];
        /** Deferred per-frame wear (line writes), same indexing. */
        FlatMap<Pfn, Count> wearDelta[2];
    };
    static_assert(sizeof(LaneState) % kCacheLineBytes == 0,
                  "adjacent machine lane slices must not share a "
                  "cache line");

    /** Lane @p lane's slice (layout tests; merged views below). */
    const LaneState &lane(unsigned lane) const { return lanes_[lane]; }

    /**
     * Execute one sampled burst reference representing @p weight
     * real bursts.  The first line access pays the TLB/walk/fault
     * path; the remaining @p burst_lines - 1 line accesses on the
     * same page only see the LLC and the device.  Weighted latencies
     * accumulate into stats().
     */
    AccessOutcome access(Addr vaddr, AccessType type, Count weight = 1,
                         unsigned burst_lines = 1);

    const MachineConfig &config() const { return config_; }

    /**
     * The device model, with any deferred per-lane traffic/wear
     * deltas flushed first so direct readers always see totals.
     */
    TieredMemory &
    memory()
    {
        syncDeviceState();
        return memory_;
    }

    AddressSpace &
    space()
    {
        syncDeviceState();
        return space_;
    }

    TlbShards &tlb() { return tlb_; }

    /**
     * Lane 0's walker: valid for configuration-derived queries
     * (walkLatency/walkAccesses are identical across lanes); use
     * walkerStats() for merged counters.
     */
    const PageWalker &walker() const { return lanes_[0].walker; }

    /** Lane-summed walker counters. */
    WalkerStats walkerStats() const;

    LlcShards &llc() { return llc_; }
    BadgerTrap &trap() { return trap_; }

    /** Lane-merged counters (by value: the sum over all lanes). */
    MachineStats stats() const;

    /**
     * Flush the per-lane deferred device accounting (tier traffic
     * and frame wear) into the TieredMemory model, in lane order.
     * The access path only appends lane-locally; anything that reads
     * device state (migration picks, stats dumps) must run behind
     * this barrier.  Idempotent and cheap when nothing is pending.
     */
    void syncDeviceState();

    /**
     * Register every memory-path component's counters under
     * "<prefix>.": tlb.l1/l2, llc, walker, memory.fast/slow, trap,
     * plus the machine-level access counters.
     */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /** Weighted slow-tier accesses since the last call. */
    Count takeSlowAccessCount();

    /**
     * Attach the telemetry tap: every access() is offered to the
     * sampler after its tier is resolved.  Null (the default)
     * removes the tap; the sampler only observes, so attaching one
     * cannot change simulated results.
     */
    void setAccessSampler(AccessSampler *sampler)
    {
        sampler_ = sampler;
    }

    /** Effective (overlapped) latency helpers, for tests. */
    Ns effectiveWalkLatency(bool huge) const;

  private:
    /**
     * Overlap-scaled latencies, precomputed at construction with
     * the same `llround(latency / overlapFactor)` the access path
     * used to evaluate per event.  `config_` is immutable after
     * construction, so the table never goes stale; killing the
     * per-access floating-point divisions is the single biggest
     * win on the simulated-access hot path.
     */
    struct EffectiveCosts
    {
        Ns walk[2] = {0, 0};       //!< [huge] page-walk cost
        Ns llcHit = 0;             //!< per-line LLC probe cost
        Ns fastAccess[2] = {0, 0}; //!< [is_write] fast-tier line
        Ns slowExcess[2] = {0, 0}; //!< [is_write] serialized excess
    };

    static EffectiveCosts computeCosts(const MachineConfig &config);

    MachineConfig config_;  // shard: read-only
    TieredMemory memory_;   // shard: merge-barrier (syncDeviceState)
    AddressSpace space_;    // shard: merge-barrier (syncDeviceState)
    TlbShards tlb_;         // shard: lane-local (internally sliced)
    LlcShards llc_;         // shard: lane-local (internally sliced)
    BadgerTrap trap_;       // shard: lane-local (internally sliced)
    EffectiveCosts costs_;  // shard: read-only
    std::vector<LaneState> lanes_; //!< kMachineLanes entries
    AccessSampler *sampler_ = nullptr; // shard: lane-local (sliced)
};

} // namespace thermostat

#endif // THERMOSTAT_SIM_MACHINE_HH
