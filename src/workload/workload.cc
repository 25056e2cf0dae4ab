#include "workload/workload.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"

namespace thermostat
{

ComposedWorkload::ComposedWorkload(std::string name, double mem_ref_rate,
                                   double cpu_work_fraction,
                                   Ns natural_duration)
    : name_(std::move(name)),
      memRefRate_(mem_ref_rate),
      cpuWorkFraction_(cpu_work_fraction),
      naturalDuration_(natural_duration)
{
    TSTAT_ASSERT(mem_ref_rate > 0.0, "workload with zero access rate");
    TSTAT_ASSERT(cpu_work_fraction >= 0.0 && cpu_work_fraction < 1.0,
                 "cpu work fraction must be in [0,1)");
}

void
ComposedWorkload::addRegion(const RegionSpec &spec)
{
    TSTAT_ASSERT(space_ == nullptr, "addRegion after setup");
    regionSpecs_.push_back(spec);
}

void
ComposedWorkload::addGrowth(const GrowthSpec &spec)
{
    TSTAT_ASSERT(space_ == nullptr, "addGrowth after setup");
    growthSpecs_.push_back(spec);
}

void
ComposedWorkload::addComponent(TrafficComponent component)
{
    TSTAT_ASSERT(space_ == nullptr, "addComponent after setup");
    TSTAT_ASSERT(component.pattern != nullptr,
                 "component without pattern");
    TSTAT_ASSERT(component.weight > 0.0, "component with zero weight");
    TSTAT_ASSERT(components_.size() < kMaxComponents,
                 "more than %zu traffic components", kMaxComponents);
    BoundComponent bound;
    bound.spec = std::move(component);
    components_.push_back(std::move(bound));
}

void
ComposedWorkload::setup(AddressSpace &space)
{
    TSTAT_ASSERT(space_ == nullptr, "setup called twice");
    space_ = &space;
    for (const RegionSpec &spec : regionSpecs_) {
        space.mapRegion(spec.name, spec.bytes, spec.reserveBytes,
                        spec.thp, spec.fileBacked);
    }
    totalWeight_ = 0.0;
    for (BoundComponent &bound : components_) {
        const Region *region = space.findRegion(bound.spec.region);
        TSTAT_ASSERT(region != nullptr,
                     "component targets unknown region '%s'",
                     bound.spec.region.c_str());
        bound.regionBase = region->base;
        bound.regionIndex = static_cast<std::size_t>(
            region - space.regions().data());
        totalWeight_ += bound.spec.weight;
        bound.cumulativeWeight = totalWeight_;
        if (bound.spec.trackGrowth) {
            bound.spec.pattern->setSpanBytes(region->mappedBytes);
        }
    }
    TSTAT_ASSERT(totalWeight_ > 0.0, "workload with no traffic");
    growthCarry_.assign(growthSpecs_.size(), 0.0);
}

void
ComposedWorkload::advance(Ns now, AddressSpace &space)
{
    TSTAT_ASSERT(space_ == &space, "advance on wrong space");
    const Ns delta = now > lastAdvance_ ? now - lastAdvance_ : 0;
    lastAdvance_ = now;

    for (std::size_t i = 0; i < growthSpecs_.size(); ++i) {
        const GrowthSpec &growth = growthSpecs_[i];
        const Region *region = space.findRegion(growth.region);
        TSTAT_ASSERT(region != nullptr, "growth for unknown region");
        double want = growth.bytesPerSec *
                          static_cast<double>(delta) /
                          static_cast<double>(kNsPerSec) +
                      growthCarry_[i];
        const std::uint64_t headroom =
            region->reservedBytes - region->mappedBytes;
        // THP regions grow in 2MB chunks (khugepaged would collapse
        // trickled 4KB growth anyway); others grow page by page.
        const std::uint64_t quantum =
            region->thp ? kPageSize2M : kPageSize4K;
        std::uint64_t grow_bytes = std::min(
            headroom,
            static_cast<std::uint64_t>(want) / quantum * quantum);
        if (grow_bytes > 0) {
            space.growRegion(growth.region, grow_bytes);
        }
        growthCarry_[i] = want - static_cast<double>(grow_bytes);
        if (headroom == 0) {
            growthCarry_[i] = 0.0;
        }
    }

    for (BoundComponent &bound : components_) {
        bound.spec.pattern->advance(now);
        if (bound.spec.trackGrowth) {
            const Region &region =
                space.regions()[bound.regionIndex];
            bound.spec.pattern->setSpanBytes(region.mappedBytes);
        }
    }
}

void
ComposedWorkload::draw(Rng &rng, std::span<RefDraw> tokens)
{
    TSTAT_ASSERT(space_ != nullptr, "draw before setup");
    for (RefDraw &token : tokens) {
        // The first component whose running weight exceeds the pick,
        // else the last.
        const double pick = rng.nextDouble() * totalWeight_;
        std::size_t chosen = components_.size() - 1;
        for (std::size_t i = 0; i < components_.size(); ++i) {
            if (pick < components_[i].cumulativeWeight) {
                chosen = i;
                break;
            }
        }
        const BoundComponent &bound = components_[chosen];
        const PatternDraw drawn = bound.spec.pattern->draw(rng);
        token.value = drawn.value;
        token.within = drawn.within;
        token.component = static_cast<std::uint16_t>(chosen);
        token.choice = drawn.choice;
        token.write = rng.nextBool(bound.spec.writeFraction);
    }
}


namespace
{

/** The reference at @p offset of a region, wrapped into its mapped
 *  part and line aligned. */
MemRef
regionRef(Addr base, std::uint64_t mapped, std::uint64_t offset,
          bool write, unsigned burst_lines)
{
    if (offset >= mapped) {
        offset %= mapped;
    }
    MemRef ref;
    ref.addr = (base + offset) & ~Addr{63};
    ref.type = write ? AccessType::Write : AccessType::Read;
    ref.burstLines = burst_lines;
    return ref;
}

} // namespace

void
ComposedWorkload::resolve(std::span<const RefDraw> tokens,
                          std::span<MemRef> refs) const
{
    for (std::size_t first = 0; first < tokens.size();
         first += kResolveBatch) {
        const std::size_t n =
            std::min(kResolveBatch, tokens.size() - first);
        resolveBatch(tokens.subspan(first, n), refs.subspan(first, n));
    }
}

void
ComposedWorkload::resolveBatch(std::span<const RefDraw> batch,
                               std::span<MemRef> refs) const
{
    // Group the tokens by component (a counting sort, stable), so
    // each pattern resolves a run of its own tokens in one virtual
    // call rather than one unpredictable call per reference.
    // Component c's tokens occupy [start[c], start[c + 1]).
    const std::size_t count = components_.size();
    std::array<std::uint16_t, kMaxComponents + 1> start;
    std::array<std::uint16_t, kMaxComponents> next;
    std::array<std::uint16_t, kResolveBatch> order;
    std::array<PatternDraw, kResolveBatch> grouped;
    std::array<std::uint64_t, kResolveBatch> offsets;
    std::fill_n(start.begin(), count + 1, 0);
    for (const RefDraw &token : batch) {
        ++start[token.component + 1];
    }
    for (std::size_t c = 0; c < count; ++c) {
        start[c + 1] += start[c];
    }
    std::copy_n(start.begin(), count, next.begin());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const RefDraw &token = batch[i];
        const std::uint16_t at = next[token.component]++;
        order[at] = static_cast<std::uint16_t>(i);
        grouped[at] = {token.value, token.within, token.choice};
    }
    for (std::size_t c = 0; c < count; ++c) {
        const std::size_t lo = start[c];
        const std::size_t len = start[c + 1] - lo;
        if (len == 0) {
            continue;
        }
        const BoundComponent &bound = components_[c];
        bound.spec.pattern->resolve({grouped.data() + lo, len},
                                    {offsets.data() + lo, len});
        const std::uint64_t mapped =
            space_->regions()[bound.regionIndex].mappedBytes;
        for (std::size_t k = lo; k < lo + len; ++k) {
            refs[order[k]] =
                regionRef(bound.regionBase, mapped, offsets[k],
                          batch[order[k]].write, bound.spec.burstLines);
        }
    }
}

std::uint64_t
ComposedWorkload::initialRssBytes() const
{
    std::uint64_t bytes = 0;
    for (const RegionSpec &spec : regionSpecs_) {
        bytes += alignUp4K(spec.bytes);
    }
    return bytes;
}

std::uint64_t
ComposedWorkload::initialFileBytes() const
{
    std::uint64_t bytes = 0;
    for (const RegionSpec &spec : regionSpecs_) {
        if (spec.fileBacked) {
            bytes += alignUp4K(spec.bytes);
        }
    }
    return bytes;
}

std::vector<RegionRate>
ComposedWorkload::regionRates() const
{
    std::vector<RegionRate> rates;
    for (const RegionSpec &spec : regionSpecs_) {
        double weight = 0.0;
        for (const BoundComponent &bound : components_) {
            if (bound.spec.region == spec.name) {
                weight += bound.spec.weight;
            }
        }
        const double share =
            totalWeight_ > 0.0 ? weight / totalWeight_ : 0.0;
        rates.push_back({spec.name, share * memRefRate_});
    }
    return rates;
}

} // namespace thermostat
