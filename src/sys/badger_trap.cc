#include "sys/badger_trap.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace thermostat
{

BadgerTrap::BadgerTrap(AddressSpace &space, TlbShards &tlb,
                       const BadgerTrapConfig &config)
    : space_(space), tlb_(tlb), config_(config), lanes_(kMachineLanes)
{
}

Ns
BadgerTrap::poison(Addr page_base)
{
    WalkResult wr = space_.pageTable().walk(page_base);
    TSTAT_ASSERT(wr.mapped(), "poison: unmapped page %#lx",
                 static_cast<unsigned long>(page_base));
    wr.pte->poison();
    tlb_.invalidatePage(page_base);
    lanes_[laneOf(page_base)].counts.set(page_base, 0);
    ++controlStats_.poisons;
    controlStats_.maintenanceTime += config_.poisonCost;
    if (tracer_) {
        tracer_->record(EventKind::PagePoisoned, tracer_->simTime(),
                        page_base, wr.huge);
    }
    return config_.poisonCost;
}

Ns
BadgerTrap::unpoison(Addr page_base)
{
    WalkResult wr = space_.pageTable().walk(page_base);
    TSTAT_ASSERT(wr.mapped(), "unpoison: unmapped page %#lx",
                 static_cast<unsigned long>(page_base));
    wr.pte->unpoison();
    ++controlStats_.unpoisons;
    controlStats_.maintenanceTime += config_.poisonCost;
    if (tracer_) {
        tracer_->record(EventKind::PageUnpoisoned,
                        tracer_->simTime(), page_base, wr.huge);
    }
    return config_.poisonCost;
}

bool
BadgerTrap::isPoisoned(Addr page_base)
{
    WalkResult wr = space_.pageTable().walk(page_base);
    return wr.mapped() && wr.pte->poisoned();
}

Ns
BadgerTrap::onPoisonFault(Addr page_base, Count weight)
{
    LaneState &lane = lanes_[laneOf(page_base)];
    ++lane.faults;
    lane.weightedFaults += weight;
    lane.handlerTime += config_.faultLatency;
    return config_.faultLatency;
}

void
BadgerTrap::recordAccess(Addr page_base, Count weight)
{
    lanes_[laneOf(page_base)].counts.add(page_base, weight);
}

Count
BadgerTrap::faultCount(Addr page_base) const
{
    return lanes_[laneOf(page_base)].counts.get(page_base);
}

void
BadgerTrap::resetCount(Addr page_base)
{
    lanes_[laneOf(page_base)].counts.set(page_base, 0);
}

void
BadgerTrap::resetAllCounts()
{
    for (LaneState &lane : lanes_) {
        lane.counts.clear();
    }
}

BadgerTrapStats
BadgerTrap::stats() const
{
    BadgerTrapStats merged = controlStats_;
    for (const LaneState &lane : lanes_) {
        merged.faults += lane.faults;
        merged.weightedFaults += lane.weightedFaults;
        merged.handlerTime += lane.handlerTime;
    }
    return merged;
}

std::size_t
BadgerTrap::trackedPages() const
{
    std::size_t n = 0;
    for (const LaneState &lane : lanes_) {
        n += lane.counts.size();
    }
    return n;
}

void
BadgerTrap::registerMetrics(MetricRegistry &registry,
                            const std::string &prefix) const
{
    registry.addCallback(prefix + ".faults", [this] {
        return static_cast<double>(stats().faults);
    });
    registry.addCallback(prefix + ".weighted_faults", [this] {
        return static_cast<double>(stats().weightedFaults);
    });
    registry.addCallback(prefix + ".poisons", [this] {
        return static_cast<double>(stats().poisons);
    });
    registry.addCallback(prefix + ".unpoisons", [this] {
        return static_cast<double>(stats().unpoisons);
    });
    registry.addCallback(prefix + ".handler_ns", [this] {
        return static_cast<double>(stats().handlerTime);
    });
    registry.addCallback(prefix + ".maintenance_ns", [this] {
        return static_cast<double>(stats().maintenanceTime);
    });
    registry.addCallback(prefix + ".tracked_pages", [this] {
        return static_cast<double>(trackedPages());
    });
}

} // namespace thermostat
