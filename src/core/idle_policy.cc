#include "core/idle_policy.hh"

namespace thermostat
{

IdlePagePolicy::IdlePagePolicy(AddressSpace &space, Kstaled &kstaled,
                               PageMigrator &migrator, BadgerTrap &trap,
                               const IdlePolicyConfig &config)
    : space_(space),
      kstaled_(kstaled),
      migrator_(migrator),
      trap_(trap),
      config_(config)
{
}

double
IdlePagePolicy::idleFraction()
{
    return kstaled_.hugeIdleFraction(config_.idleScans);
}

void
IdlePagePolicy::tick(Ns now)
{
    while (now >= nextScan_) {
        scanAndPlace(now);
        nextScan_ += config_.scanPeriod;
    }
}

void
IdlePagePolicy::scanAndPlace(Ns now)
{
    kstaled_.scanAll();
    ++stats_.scans;

    std::vector<Addr> to_place;
    space_.pageTable().forEachLeaf(
        [&](Addr base, Pte &, bool huge) {
            if (huge && placed_.find(base) == placed_.end() &&
                kstaled_.idleState(base).idleScans >=
                    config_.idleScans) {
                to_place.push_back(base);
            }
        });

    for (const Addr base : to_place) {
        if (!migrator_.migrate(base, Tier::Slow, now).moved) {
            continue;
        }
        trap_.poison(base);
        placed_.insert(base);
        ++stats_.placed;
    }
}

} // namespace thermostat
