#include "cache/llc.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace thermostat
{

LastLevelCache::LastLevelCache(const LlcConfig &config)
    : config_(config)
{
    TSTAT_ASSERT(config.lineSize > 0 && config.ways > 0,
                 "bad LLC geometry");
    const std::uint64_t line_count = config.sizeBytes / config.lineSize;
    TSTAT_ASSERT(line_count % config.ways == 0,
                 "LLC lines not divisible by ways");
    setCount_ = static_cast<unsigned>(line_count / config.ways);
    setsPow2_ = (setCount_ & (setCount_ - 1)) == 0;
    setMask_ = setCount_ - 1;
    linePow2_ = (config.lineSize & (config.lineSize - 1)) == 0;
    lineShift_ = 0;
    while ((1u << lineShift_) < config.lineSize) {
        ++lineShift_;
    }
    setData_.assign(2 * line_count, 0);
    mruWay_.assign(setCount_, 0);
}

bool
LastLevelCache::contains(Addr paddr) const
{
    const std::uint64_t line = lineAddr(paddr);
    const std::uint64_t *tags =
        &setData_[static_cast<std::uint64_t>(setIndex(line)) * 2 *
                  config_.ways];
    const std::uint64_t want = packTag(line);
    for (unsigned w = 0; w < config_.ways; ++w) {
        if ((tags[w] & ~kDirtyBit) == want) {
            return true;
        }
    }
    return false;
}

void
LastLevelCache::flushAll()
{
    std::fill(setData_.begin(), setData_.end(), 0);
}

void
LastLevelCache::invalidateFrames(Pfn first, unsigned frames)
{
    const std::uint64_t first_line =
        first * kPageSize4K / config_.lineSize;
    const std::uint64_t line_count =
        static_cast<std::uint64_t>(frames) * kPageSize4K /
        config_.lineSize;
    const unsigned ways = config_.ways;
    if (line_count >= setCount_) {
        // Every set holds lines of the range: clear each valid tag
        // whose line address falls in [first_line, first_line +
        // line_count).  The unsigned difference wraps for lines
        // below the range.
        for (std::uint64_t set = 0; set < setCount_; ++set) {
            std::uint64_t *tags = &setData_[set * 2 * ways];
            for (unsigned w = 0; w < ways; ++w) {
                if ((tags[w] & kValidBit) != 0 &&
                    (tags[w] >> 2) - first_line < line_count) {
                    tags[w] = 0;
                }
            }
        }
        return;
    }
    for (std::uint64_t line = first_line;
         line < first_line + line_count; ++line) {
        std::uint64_t *tags =
            &setData_[static_cast<std::uint64_t>(setIndex(line)) *
                      2 * ways];
        const std::uint64_t want = packTag(line);
        for (unsigned w = 0; w < ways; ++w) {
            if ((tags[w] & ~kDirtyBit) == want) {
                tags[w] = 0;
            }
        }
    }
}

void
LastLevelCache::resetStats()
{
    stats_ = LlcStats();
}

LlcConfig
LlcShards::sliceConfig(const LlcConfig &config)
{
    LlcConfig slice = config;
    const std::uint64_t lane_lines =
        config.sizeBytes / kMachineLanes / config.lineSize;
    const std::uint64_t lines = std::max<std::uint64_t>(
        config.ways, lane_lines - (lane_lines % config.ways));
    slice.sizeBytes = lines * config.lineSize;
    return slice;
}

LlcShards::LlcShards(const LlcConfig &config)
    : config_(config)
{
    const LlcConfig slice = sliceConfig(config);
    lanes_.reserve(kMachineLanes);
    for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
        lanes_.emplace_back(slice);
    }
}

bool
LlcShards::contains(Addr paddr) const
{
    for (const LastLevelCache &lane : lanes_) {
        if (lane.contains(paddr)) {
            return true;
        }
    }
    return false;
}

void
LlcShards::flushAll()
{
    for (LastLevelCache &lane : lanes_) {
        lane.flushAll();
    }
}

LlcStats
LlcShards::stats() const
{
    LlcStats merged;
    for (const LastLevelCache &lane : lanes_) {
        merged.hits += lane.stats().hits;
        merged.misses += lane.stats().misses;
        merged.writebacks += lane.stats().writebacks;
    }
    return merged;
}

void
LlcShards::resetStats()
{
    for (LastLevelCache &lane : lanes_) {
        lane.resetStats();
    }
}

void
LlcShards::registerMetrics(MetricRegistry &registry,
                           const std::string &prefix) const
{
    registry.addCallback(prefix + ".hits", [this] {
        return static_cast<double>(stats().hits);
    });
    registry.addCallback(prefix + ".misses", [this] {
        return static_cast<double>(stats().misses);
    });
    registry.addCallback(prefix + ".writebacks", [this] {
        return static_cast<double>(stats().writebacks);
    });
    registry.addCallback(prefix + ".miss_ratio",
                         [this] { return stats().missRatio(); });
}

} // namespace thermostat
