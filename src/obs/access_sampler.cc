#include "obs/access_sampler.hh"

#include <algorithm>

#include "obs/metrics.hh"

namespace thermostat
{

AccessSampler::AccessSampler(const AccessSamplerConfig &config,
                             std::uint64_t run_seed)
    : config_(config), lanes_(kMachineLanes)
{
    // One independent, deterministically derived stream per lane:
    // splitmix the salted run seed forward once per lane so the lane
    // streams are decorrelated but fully determined by the run seed.
    std::uint64_t state = run_seed ^ config.seedSalt;
    for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
        LaneState &ls = lanes_[lane];
        ls.rng = Rng(splitMix64(state));
        if (enabled()) {
            ls.gap = nextGap(ls);
        }
    }
}

std::uint64_t
AccessSampler::nextGap(LaneState &lane)
{
    // Randomized inter-sample gap with mean `period`: uniform on
    // [1, 2*period - 1].  Integer-only (no libm), so the gap
    // sequence is bit-identical on every platform, and the jitter
    // breaks lockstep aliasing with strided access patterns the
    // same way hardware PEBS randomization does.
    const Count period = config_.period;
    if (period <= 1) {
        return 1;
    }
    return 1 + lane.rng.nextBounded(2 * period - 1);
}

void
AccessSampler::record(LaneState &lane, const AccessSample &sample)
{
    ++lane.sampled;
    if (sample.write) {
        ++lane.sampledWrites;
    }
    if (sample.slowTier) {
        ++lane.sampledSlow;
    }

    lane.pageWeight.add(sample.pageBase, sample.weight);
    lane.regionWeight.add(alignDown2M(sample.pageBase),
                          sample.weight);

    // Order-sensitive stream digest: hash the sample into a rolling
    // FNV/SplitMix mix so tests can assert two runs produced the
    // exact same sample sequence without storing it.
    std::uint64_t word = sample.pageBase;
    word = word * 0x100000001b3ULL + sample.weight;
    word ^= (sample.huge ? 1ULL : 0) | (sample.write ? 2ULL : 0) |
            (sample.slowTier ? 4ULL : 0);
    std::uint64_t state = lane.digest ^ word;
    lane.digest = splitMix64(state);

    if (config_.keepRecords) {
        if (lane.records.size() < config_.maxRecords) {
            lane.records.push_back(sample);
        } else if (!lane.records.empty()) {
            lane.records[lane.recordHead] = sample;
            lane.recordHead =
                (lane.recordHead + 1) % lane.records.size();
            ++lane.recordsDropped;
        }
    }
    lane.gap = nextGap(lane);
}

std::uint64_t
AccessSampler::offered() const
{
    std::uint64_t n = 0;
    for (const LaneState &lane : lanes_) {
        n += lane.offered;
    }
    return n;
}

std::uint64_t
AccessSampler::sampled() const
{
    std::uint64_t n = 0;
    for (const LaneState &lane : lanes_) {
        n += lane.sampled;
    }
    return n;
}

std::uint64_t
AccessSampler::sampledWrites() const
{
    std::uint64_t n = 0;
    for (const LaneState &lane : lanes_) {
        n += lane.sampledWrites;
    }
    return n;
}

std::uint64_t
AccessSampler::sampledSlow() const
{
    std::uint64_t n = 0;
    for (const LaneState &lane : lanes_) {
        n += lane.sampledSlow;
    }
    return n;
}

std::size_t
AccessSampler::pagesSeen() const
{
    std::size_t n = 0;
    for (const LaneState &lane : lanes_) {
        n += lane.pageWeight.size();
    }
    return n;
}

std::size_t
AccessSampler::regionsSeen() const
{
    std::size_t n = 0;
    for (const LaneState &lane : lanes_) {
        n += lane.regionWeight.size();
    }
    return n;
}

std::uint64_t
AccessSampler::recordsDropped() const
{
    std::uint64_t n = 0;
    for (const LaneState &lane : lanes_) {
        n += lane.recordsDropped;
    }
    return n;
}

std::uint64_t
AccessSampler::streamDigest() const
{
    std::uint64_t digest = 0x9e3779b97f4a7c15ULL;
    for (const LaneState &lane : lanes_) {
        std::uint64_t state = digest ^ lane.digest;
        digest = splitMix64(state);
    }
    return digest;
}

std::vector<AccessSample>
AccessSampler::records() const
{
    // Lane-major; within a lane, un-rotate the ring (recordHead
    // marks the oldest entry once the ring has wrapped).
    std::vector<AccessSample> out;
    for (const LaneState &lane : lanes_) {
        for (std::size_t i = 0; i < lane.records.size(); ++i) {
            out.push_back(
                lane.records[(lane.recordHead + i) %
                             lane.records.size()]);
        }
    }
    return out;
}

std::uint64_t
AccessSampler::pageWeight(Addr page_base) const
{
    return lanes_[laneOf(page_base)].pageWeight.get(page_base);
}

std::uint64_t
AccessSampler::regionWeight(Addr region_base) const
{
    return lanes_[laneOf(region_base)].regionWeight.get(region_base);
}

Log2Histogram
AccessSampler::pageHotnessHistogram() const
{
    Log2Histogram histogram;
    for (const LaneState &lane : lanes_) {
        for (const Count weight : lane.pageWeight.counts()) {
            histogram.add(weight);
        }
    }
    return histogram;
}

std::vector<AccessSampler::RegionRank>
AccessSampler::hottestRegions(std::size_t n) const
{
    std::vector<RegionRank> ranks;
    ranks.reserve(regionsSeen());
    for (const LaneState &lane : lanes_) {
        const std::vector<Addr> &bases = lane.regionWeight.pages();
        const std::vector<Count> &weights =
            lane.regionWeight.counts();
        for (std::size_t i = 0; i < bases.size(); ++i) {
            ranks.push_back({bases[i], weights[i]});
        }
    }
    std::sort(ranks.begin(), ranks.end(),
              [](const RegionRank &a, const RegionRank &b) {
                  if (a.weight != b.weight) {
                      return a.weight > b.weight;
                  }
                  return a.base < b.base;
              });
    if (ranks.size() > n) {
        ranks.resize(n);
    }
    return ranks;
}

void
AccessSampler::registerMetrics(MetricRegistry &registry,
                               const std::string &prefix) const
{
    registry.addCallback(prefix + ".offered", [this] {
        return static_cast<double>(offered());
    });
    registry.addCallback(prefix + ".sampled", [this] {
        return static_cast<double>(sampled());
    });
    registry.addCallback(prefix + ".sampled_writes", [this] {
        return static_cast<double>(sampledWrites());
    });
    registry.addCallback(prefix + ".sampled_slow", [this] {
        return static_cast<double>(sampledSlow());
    });
    registry.addCallback(prefix + ".pages_seen", [this] {
        return static_cast<double>(pagesSeen());
    });
    registry.addCallback(prefix + ".regions_seen", [this] {
        return static_cast<double>(regionsSeen());
    });
    registry.addCallback(prefix + ".records_dropped", [this] {
        return static_cast<double>(recordsDropped());
    });
}

void
AccessSampler::reset()
{
    for (LaneState &lane : lanes_) {
        lane.offered = 0;
        lane.sampled = 0;
        lane.sampledWrites = 0;
        lane.sampledSlow = 0;
        lane.digest = 0x9e3779b97f4a7c15ULL;
        lane.pageWeight.clear();
        lane.regionWeight.clear();
        lane.records.clear();
        lane.recordHead = 0;
        lane.recordsDropped = 0;
        if (enabled()) {
            lane.gap = nextGap(lane);
        }
    }
}

} // namespace thermostat
