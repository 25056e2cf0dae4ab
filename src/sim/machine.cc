#include "sim/machine.hh"

#include "obs/access_sampler.hh"
#include "obs/metrics.hh"

#include <cmath>

#include "common/logging.hh"

namespace thermostat
{

// shard: serial-only -- construction precedes any lane fan-out.
Machine::Machine(const MachineConfig &config)
    : config_(config),
      memory_(config.fastTier, config.slowTier),
      space_(memory_, config.thpEnabled, config.addressBase),
      tlb_(config.l1Tlb, config.l2Tlb),
      llc_(config.llc),
      trap_(space_, tlb_, config.trap),
      costs_(computeCosts(config_))
{
    lanes_.reserve(kMachineLanes);
    for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
        lanes_.emplace_back(config_.walker);
    }
}

Machine::EffectiveCosts
Machine::computeCosts(const MachineConfig &config)
{
    // A throwaway walker: walkLatency() is pure configuration, and
    // building one here keeps costs_ independent of lane state (it
    // is initialized before lanes_ exists).
    const PageWalker walker(config.walker);
    const double overlap = config.overlapFactor;
    const auto scaled = [overlap](Ns latency) {
        return static_cast<Ns>(std::llround(
            static_cast<double>(latency) / overlap));
    };
    EffectiveCosts costs;
    costs.walk[0] = scaled(walker.walkLatency(false));
    costs.walk[1] = scaled(walker.walkLatency(true));
    costs.llcHit = scaled(config.llc.hitLatency);
    for (const bool write : {false, true}) {
        const Ns fast = write ? config.fastTier.writeLatency
                              : config.fastTier.readLatency;
        const Ns slow = write ? config.slowTier.writeLatency
                              : config.slowTier.readLatency;
        costs.fastAccess[write] = scaled(fast);
        costs.slowExcess[write] = slow > fast ? slow - fast : 0;
    }
    return costs;
}

Ns
Machine::effectiveWalkLatency(bool huge) const
{
    return costs_.walk[huge];
}

AccessOutcome
Machine::access(Addr vaddr, AccessType type, Count weight,
                unsigned burst_lines)
{
    AccessOutcome out;

    const unsigned lane_id = laneOf(vaddr);
    LaneState &lane = lanes_[lane_id];

    Pfn pfn = 0;
    bool &huge = out.huge;

    TlbEntry entry;
    const TlbShards::HitLevel level = tlb_.lookup(vaddr, &entry);
    if (level == TlbShards::HitLevel::L1) {
        pfn = entry.pfn;
        huge = entry.huge;
    } else if (level == TlbShards::HitLevel::L2) {
        pfn = entry.pfn;
        huge = entry.huge;
        out.actualLatency += config_.l2TlbHitLatency;
        out.baselineLatency += config_.l2TlbHitLatency;
    } else {
        out.tlbMiss = true;
        const WalkOutcome walk = lane.walker.walk(space_.pageTable(),
                                                  vaddr, type);
        TSTAT_ASSERT(walk.result.mapped(),
                     "access to unmapped address %#lx",
                     static_cast<unsigned long>(vaddr));
        huge = walk.result.huge;
        pfn = walk.result.pte->pfn();
        const Ns walk_cost = costs_.walk[huge];
        out.actualLatency += walk_cost;
        out.baselineLatency += walk_cost;

        if (walk.result.pte->poisoned() &&
            config_.countingMode == CountingMode::BadgerTrap) {
            out.poisonFault = true;
            const Addr page_base =
                huge ? alignDown2M(vaddr) : alignDown4K(vaddr);
            // The handler latency is serialized (not overlapped).
            out.actualLatency += trap_.onPoisonFault(page_base, weight);
        }
        // BadgerTrap (or the walker) installs the translation.
        tlb_.insert(huge ? alignDown2M(vaddr) : alignDown4K(vaddr),
                    pfn, huge);
    }

    // Compose the physical address.
    const Addr paddr =
        huge ? (pfn << kPageShift4K) + (vaddr & (kPageSize2M - 1))
             : (pfn << kPageShift4K) + (vaddr & (kPageSize4K - 1));

    // The burst: the leading line plus (burst_lines - 1) further
    // lines on the same 4KB-aligned page region, wrapping within it.
    // Every line lands on the same 4KB frame, so the tier, the
    // device and the per-line costs are loop invariants.
    const Addr page4k = alignDown4K(paddr);
    const Pfn frame = page4k >> kPageShift4K;
    const Tier tier = memory_.tierOf(frame);
    const unsigned tier_idx = tier == Tier::Fast ? 0 : 1;
    TierStats &traffic = lane.tierDelta[tier_idx];
    out.tier = tier;
    const bool write = type == AccessType::Write;
    const unsigned lines = std::max(1u, burst_lines);
    const Ns fast_cost = costs_.fastAccess[write];
    const Ns miss_cost =
        tier == Tier::Fast ||
                config_.slowMode != SlowEmuMode::Device
            // Fast tier, or emulation mode: the device behaves like
            // DRAM; the poison fault above already charged ~1us for
            // the burst, and further lines ride on the installed
            // translation (the paper's noted under-estimate).
            ? fast_cost
            // Fast-equivalent part overlaps; the latency excess of
            // the slow device is serialized.
            : fast_cost + costs_.slowExcess[write];

    out.actualLatency += costs_.llcHit * lines;
    out.baselineLatency += costs_.llcHit * lines;
    lane.stats.lineAccesses += lines;

    bool first_line_missed = false;
    Count missed_lines = 0;
    for (unsigned line = 0; line < lines; ++line) {
        const Addr line_addr =
            page4k + ((paddr - page4k + line * 64) & (kPageSize4K - 1));
        if (llc_.access(lane_id, line_addr, type)) {
            continue;
        }
        if (line == 0) {
            first_line_missed = true;
        }
        ++missed_lines;
        out.baselineLatency += fast_cost;
        out.actualLatency += miss_cost;
    }
    if (missed_lines != 0) {
        // Deferred device accounting: append into this lane's delta
        // and flush at the next syncDeviceState() barrier.  All the
        // merged quantities are commutative sums (and per-frame wear
        // is lane-exclusive: a frame is reached through one vaddr
        // region, hence one lane), so lane-order flushing reproduces
        // the serial totals exactly.
        if (write) {
            traffic.writes += missed_lines;
            traffic.bytesWritten += missed_lines * 64;
            lane.wearDelta[tier_idx][frame] += missed_lines;
        } else {
            traffic.reads += missed_lines;
            traffic.bytesRead += missed_lines * 64;
        }
        lane.devicePending = true;
    }
    out.llcMiss = first_line_missed;
    if (first_line_missed &&
        config_.countingMode == CountingMode::CmBit) {
        // The CM bit travels with the translation: an LLC miss to a
        // monitored page raises a fault whose service overlaps the
        // memory access (Sec 6.1.1).
        const WalkResult wr = space_.pageTable().walk(vaddr);
        if (wr.mapped() && wr.pte->poisoned()) {
            out.poisonFault = true;
            out.actualLatency += config_.cmFaultLatency;
            lane.stats.cmFaults += weight;
        }
    }
    if (first_line_missed && out.tier == Tier::Slow) {
        lane.stats.weightedSlowAccesses += weight;
        lane.slowAccessWindow += weight;
    }

    ++lane.stats.accesses;
    lane.stats.weightedAccesses += weight;
    lane.stats.actualTime += out.actualLatency * weight;
    lane.stats.baselineTime += out.baselineLatency * weight;
    if (sampler_ != nullptr) {
        // Telemetry tap: observe-only, own RNG stream; placement
        // after tier resolution so the sample carries the tier.
        out.sampled = sampler_->onAccess(alignDown4K(vaddr), huge,
                                         write, tier == Tier::Slow,
                                         weight);
    }
    return out;
}

void
Machine::syncDeviceState()
{
    for (LaneState &lane : lanes_) {
        if (!lane.devicePending) {
            continue;
        }
        for (unsigned tier_idx = 0; tier_idx < 2; ++tier_idx) {
            MemoryTier &device = memory_.tier(
                tier_idx == 0 ? Tier::Fast : Tier::Slow);
            device.applyDeferred(lane.tierDelta[tier_idx]);
            lane.tierDelta[tier_idx] = TierStats();
            for (const auto &entry : lane.wearDelta[tier_idx]) {
                device.recordWear(entry.key, entry.value);
            }
            lane.wearDelta[tier_idx].clear();
        }
        lane.devicePending = false;
    }
}

// shard: merge-barrier -- callers read stats between epochs, after
// syncDeviceState() has drained every lane's pending deltas.
MachineStats
Machine::stats() const
{
    MachineStats total;
    for (const LaneState &lane : lanes_) {
        total.accesses += lane.stats.accesses;
        total.lineAccesses += lane.stats.lineAccesses;
        total.cmFaults += lane.stats.cmFaults;
        total.weightedAccesses += lane.stats.weightedAccesses;
        total.weightedSlowAccesses += lane.stats.weightedSlowAccesses;
        total.actualTime += lane.stats.actualTime;
        total.baselineTime += lane.stats.baselineTime;
    }
    return total;
}

// shard: merge-barrier -- same contract as stats().
WalkerStats
Machine::walkerStats() const
{
    WalkerStats total;
    for (const LaneState &lane : lanes_) {
        const WalkerStats &ws = lane.walker.stats();
        total.walks4K += ws.walks4K;
        total.walks2M += ws.walks2M;
        total.tableAccesses += ws.tableAccesses;
        total.totalWalkTime += ws.totalWalkTime;
    }
    return total;
}

// shard: merge-barrier -- drains the per-lane windows serially
// between epochs.
Count
Machine::takeSlowAccessCount()
{
    Count out = 0;
    for (LaneState &lane : lanes_) {
        out += lane.slowAccessWindow;
        lane.slowAccessWindow = 0;
    }
    return out;
}

// shard: serial-only -- registration happens once at setup; the
// callbacks themselves fire from the serial reporting phase.
void
Machine::registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const
{
    registry.addCallback(prefix + ".accesses", [this] {
        return static_cast<double>(stats().accesses);
    });
    registry.addCallback(prefix + ".line_accesses", [this] {
        return static_cast<double>(stats().lineAccesses);
    });
    registry.addCallback(prefix + ".cm_faults", [this] {
        return static_cast<double>(stats().cmFaults);
    });
    registry.addCallback(prefix + ".weighted_accesses", [this] {
        return static_cast<double>(stats().weightedAccesses);
    });
    registry.addCallback(prefix + ".weighted_slow_accesses", [this] {
        return static_cast<double>(stats().weightedSlowAccesses);
    });
    registry.addCallback(prefix + ".actual_ns", [this] {
        return static_cast<double>(stats().actualTime);
    });
    registry.addCallback(prefix + ".baseline_ns", [this] {
        return static_cast<double>(stats().baselineTime);
    });
    tlb_.registerMetrics(registry, prefix + ".tlb");
    llc_.registerMetrics(registry, prefix + ".llc");
    // Lane-merged walker counters.
    const std::string walker_prefix = prefix + ".walker";
    registry.addCallback(walker_prefix + ".walks_4k", [this] {
        return static_cast<double>(walkerStats().walks4K);
    });
    registry.addCallback(walker_prefix + ".walks_2m", [this] {
        return static_cast<double>(walkerStats().walks2M);
    });
    registry.addCallback(walker_prefix + ".table_accesses", [this] {
        return static_cast<double>(walkerStats().tableAccesses);
    });
    registry.addCallback(walker_prefix + ".total_walk_ns", [this] {
        return static_cast<double>(walkerStats().totalWalkTime);
    });
    memory_.registerMetrics(registry, prefix + ".memory");
    trap_.registerMetrics(registry, prefix + ".trap");
}

} // namespace thermostat
