#include "tlb/tlb.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace thermostat
{

Tlb::Tlb(const TlbConfig &config)
    : config_(config)
{
    TSTAT_ASSERT(config.entryCount > 0 && config.ways > 0,
                 "empty TLB");
    TSTAT_ASSERT(config.entryCount % config.ways == 0,
                 "TLB entries not divisible by ways");
    setCount_ = config.entryCount / config.ways;
    setsPow2_ = (setCount_ & (setCount_ - 1)) == 0;
    setMask_ = setCount_ - 1;
    entries_.resize(config.entryCount);
}

std::optional<TlbEntry>
Tlb::peek(Addr vaddr) const
{
    if (const TlbEntry *e = findEntry(vpn4K(vaddr), false)) {
        return *e;
    }
    if (const TlbEntry *e = findEntry(vpn2M(vaddr), true)) {
        return *e;
    }
    return std::nullopt;
}

void
Tlb::invalidatePage(Addr vaddr)
{
    dropTranslationCache();
    if (TlbEntry *e = findEntry(vpn4K(vaddr), false)) {
        e->valid = false;
        --sizeCount_[0];
        ++stats_.invalidations;
    }
    if (TlbEntry *e = findEntry(vpn2M(vaddr), true)) {
        e->valid = false;
        --sizeCount_[1];
        ++stats_.invalidations;
    }
}

void
Tlb::flushAll()
{
    dropTranslationCache();
    for (TlbEntry &e : entries_) {
        e.valid = false;
    }
    sizeCount_[0] = 0;
    sizeCount_[1] = 0;
    ++stats_.flushes;
}

unsigned
Tlb::validCount() const
{
    unsigned n = 0;
    for (const TlbEntry &e : entries_) {
        n += e.valid ? 1 : 0;
    }
    return n;
}

TlbHierarchy::TlbHierarchy(const TlbConfig &l1_config,
                           const TlbConfig &l2_config)
    : l1_(l1_config), l2_(l2_config)
{
}

void
TlbHierarchy::flushAll()
{
    l1_.flushAll();
    l2_.flushAll();
}

TlbConfig
TlbShards::sliceConfig(const TlbConfig &config)
{
    TlbConfig slice = config;
    const unsigned share = config.entryCount / kMachineLanes;
    slice.entryCount = std::max(
        config.ways, share - (share % config.ways));
    return slice;
}

TlbShards::TlbShards(const TlbConfig &l1_config,
                     const TlbConfig &l2_config)
{
    const TlbConfig l1_slice = sliceConfig(l1_config);
    const TlbConfig l2_slice = sliceConfig(l2_config);
    lanes_.reserve(kMachineLanes);
    for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
        lanes_.emplace_back(l1_slice, l2_slice);
    }
}

void
TlbShards::flushAll()
{
    for (TlbHierarchy &lane : lanes_) {
        lane.flushAll();
    }
}

namespace
{

TlbStats
sumTlbStats(TlbStats into, const TlbStats &from)
{
    into.hits += from.hits;
    into.misses += from.misses;
    into.fills += from.fills;
    into.evictions += from.evictions;
    into.invalidations += from.invalidations;
    into.flushes += from.flushes;
    return into;
}

} // namespace

TlbStats
TlbShards::l1Stats() const
{
    TlbStats merged;
    for (const TlbHierarchy &lane : lanes_) {
        merged = sumTlbStats(merged, lane.l1().stats());
    }
    return merged;
}

TlbStats
TlbShards::l2Stats() const
{
    TlbStats merged;
    for (const TlbHierarchy &lane : lanes_) {
        merged = sumTlbStats(merged, lane.l2().stats());
    }
    return merged;
}

void
TlbShards::resetStats()
{
    for (TlbHierarchy &lane : lanes_) {
        lane.l1().resetStats();
        lane.l2().resetStats();
    }
}

void
TlbShards::registerMetrics(MetricRegistry &registry,
                           const std::string &prefix) const
{
    const auto add = [this, &registry,
                      &prefix](const std::string &level,
                               const std::string &name,
                               auto field) {
        registry.addCallback(
            prefix + "." + level + "." + name,
            [this, level, field] {
                const bool l2 = level == "l2";
                Count total = 0;
                for (const TlbHierarchy &lane : lanes_) {
                    const Tlb &tlb = l2 ? lane.l2() : lane.l1();
                    total += tlb.stats().*field;
                }
                return static_cast<double>(total);
            });
    };
    for (const char *level : {"l1", "l2"}) {
        add(level, "hits", &TlbStats::hits);
        add(level, "misses", &TlbStats::misses);
        add(level, "fills", &TlbStats::fills);
        add(level, "evictions", &TlbStats::evictions);
        add(level, "invalidations", &TlbStats::invalidations);
        add(level, "flushes", &TlbStats::flushes);
    }
    registry.addCallback(prefix + ".l1.miss_ratio",
                         [this] { return l1Stats().missRatio(); });
    registry.addCallback(prefix + ".l2.miss_ratio",
                         [this] { return l2Stats().missRatio(); });
}

} // namespace thermostat
