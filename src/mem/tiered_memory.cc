#include "mem/tiered_memory.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace thermostat
{

TierConfig
TierConfig::dram(std::uint64_t capacity_bytes)
{
    TierConfig cfg;
    cfg.name = "dram";
    cfg.capacityBytes = capacity_bytes;
    cfg.readLatency = 80;
    cfg.writeLatency = 80;
    cfg.bandwidthBytesPerSec = 50.0e9;
    cfg.relativeCostPerByte = 1.0;
    cfg.writeEndurance = 0;
    return cfg;
}

TierConfig
TierConfig::slow(std::uint64_t capacity_bytes)
{
    TierConfig cfg;
    cfg.name = "slowmem";
    cfg.capacityBytes = capacity_bytes;
    cfg.readLatency = 1000;
    cfg.writeLatency = 1500;
    cfg.bandwidthBytesPerSec = 5.0e9;
    cfg.relativeCostPerByte = 1.0 / 3.0;
    cfg.writeEndurance = 100'000'000ULL;
    return cfg;
}

MemoryTier::MemoryTier(const TierConfig &config, Pfn base_pfn)
    : config_(config),
      allocator_(base_pfn, config.capacityBytes / kPageSize4K)
{
    TSTAT_ASSERT(config.capacityBytes % kPageSize2M == 0,
                 "tier capacity must be 2MB aligned");
}

void
MemoryTier::recordMigrationIn(std::uint64_t bytes)
{
    ++stats_.migrationsIn;
    stats_.migrationBytesIn += bytes;
}

void
MemoryTier::recordMigrationOut(std::uint64_t bytes)
{
    ++stats_.migrationsOut;
    stats_.migrationBytesOut += bytes;
}

void
MemoryTier::recordWear(Pfn pfn, Count writes)
{
    if (config_.writeEndurance == 0) {
        return; // DRAM-like: wear not tracked.
    }
    totalWear_ += writes;
    Count &w = frameWear_[pfn];
    w += writes;
    maxFrameWear_ = std::max(maxFrameWear_, w);
}

bool
MemoryTier::wornOut() const
{
    return config_.writeEndurance != 0 &&
           maxFrameWear_ > config_.writeEndurance;
}

std::uint64_t
MemoryTier::usedBytes() const
{
    return allocator_.allocatedFrames() * kPageSize4K;
}

TieredMemory::TieredMemory(const TierConfig &fast, const TierConfig &slow)
    : fastTier_(fast, 0),
      slowTier_(slow, fast.capacityBytes / kPageSize4K),
      slowBasePfn_(fast.capacityBytes / kPageSize4K)
{
}

Ns
TieredMemory::access(Pfn pfn, AccessType type, std::uint64_t bytes)
{
    MemoryTier &t = tier(tierOf(pfn));
    t.recordAccess(type, bytes);
    if (type == AccessType::Write) {
        t.recordWear(pfn, 1);
    }
    return t.accessLatency(type);
}

std::optional<Pfn>
TieredMemory::allocHuge(Tier t)
{
    return tier(t).allocator().allocHuge();
}

std::optional<Pfn>
TieredMemory::allocBase(Tier t)
{
    return tier(t).allocator().allocBase();
}

void
TieredMemory::freeHuge(Pfn base)
{
    tier(tierOf(base)).allocator().freeHuge(base);
}

void
TieredMemory::freeBase(Pfn pfn)
{
    tier(tierOf(pfn)).allocator().freeBase(pfn);
}

std::uint64_t
TieredMemory::usedBytes() const
{
    return fastTier_.usedBytes() + slowTier_.usedBytes();
}

double
TieredMemory::costRelativeToAllFast() const
{
    const auto fast_used = static_cast<double>(fastTier_.usedBytes());
    const auto slow_used = static_cast<double>(slowTier_.usedBytes());
    const double total = fast_used + slow_used;
    if (total == 0.0) {
        return 1.0;
    }
    const double blended =
        fast_used * fastTier_.config().relativeCostPerByte +
        slow_used * slowTier_.config().relativeCostPerByte;
    return blended / (total * fastTier_.config().relativeCostPerByte);
}

void
MemoryTier::registerMetrics(MetricRegistry &registry,
                            const std::string &prefix) const
{
    registry.addCallback(prefix + ".reads", [this] {
        return static_cast<double>(stats_.reads);
    });
    registry.addCallback(prefix + ".writes", [this] {
        return static_cast<double>(stats_.writes);
    });
    registry.addCallback(prefix + ".bytes_read", [this] {
        return static_cast<double>(stats_.bytesRead);
    });
    registry.addCallback(prefix + ".bytes_written", [this] {
        return static_cast<double>(stats_.bytesWritten);
    });
    registry.addCallback(prefix + ".migrations_in", [this] {
        return static_cast<double>(stats_.migrationsIn);
    });
    registry.addCallback(prefix + ".migrations_out", [this] {
        return static_cast<double>(stats_.migrationsOut);
    });
    registry.addCallback(prefix + ".migration_bytes_in", [this] {
        return static_cast<double>(stats_.migrationBytesIn);
    });
    registry.addCallback(prefix + ".migration_bytes_out", [this] {
        return static_cast<double>(stats_.migrationBytesOut);
    });
    registry.addCallback(prefix + ".used_bytes", [this] {
        return static_cast<double>(usedBytes());
    });
    registry.addCallback(prefix + ".capacity_bytes", [this] {
        return static_cast<double>(capacityBytes());
    });
    registry.addCallback(prefix + ".total_wear", [this] {
        return static_cast<double>(totalWear());
    });
    registry.addCallback(prefix + ".max_frame_wear", [this] {
        return static_cast<double>(maxFrameWear());
    });
}

void
TieredMemory::registerMetrics(MetricRegistry &registry,
                              const std::string &prefix) const
{
    fastTier_.registerMetrics(registry, prefix + ".fast");
    slowTier_.registerMetrics(registry, prefix + ".slow");
    registry.addCallback(prefix + ".fast.shadow_bytes", [this] {
        return static_cast<double>(fastShadowBytes_);
    });
    registry.addCallback(prefix + ".slow.shadow_bytes", [this] {
        return static_cast<double>(slowShadowBytes_);
    });
}

} // namespace thermostat
