/**
 * @file
 * Conservation invariants over many random seeds.  Each run must
 * satisfy:
 *
 *   - the lifecycle audit replay agrees with component accounting;
 *   - migrated byte counts match migrated page counts exactly;
 *   - no frame is lost or duplicated: allocated + free equals the
 *     tier's frame count, in both tiers;
 *   - the page table and the allocators agree on slow-tier
 *     occupancy, and the engine's cold set agrees with both.
 *
 * Labeled "stress": 50 short end-to-end runs.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness.hh"
#include "sim/simulation.hh"

namespace thermostat
{
namespace
{

using test::halfColdWorkload;
using test::tinySimConfig;

constexpr unsigned kSeeds = 50;

void
checkInvariants(std::uint64_t seed)
{
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SimConfig config = tinySimConfig(seed);
    config.duration = 60 * kNsPerSec;
    Simulation sim(halfColdWorkload(), config);
    const SimResult r = sim.run();

    // Event-stream replay agrees with component accounting.
    EXPECT_EQ(r.auditViolations, 0u);

    // Migration byte/page consistency.
    EXPECT_EQ(r.migration.bytesDemoted,
              r.migration.hugeDemotions * kPageSize2M +
                  r.migration.baseDemotions * kPageSize4K);
    EXPECT_EQ(r.migration.bytesPromoted,
              r.migration.hugePromotions * kPageSize2M +
                  r.migration.basePromotions * kPageSize4K);

    // Frame conservation in both tiers.
    TieredMemory &memory = sim.machine().memory();
    for (const MemoryTier *tier :
         {&memory.fast(), &memory.slow()}) {
        const FrameAllocator &alloc = tier->allocator();
        EXPECT_EQ(alloc.allocatedFrames() + alloc.freeFrames(),
                  alloc.frameCount())
            << tier->config().name;
    }

    // Page table, slow allocator and engine cold set all agree.
    std::uint64_t slow_mapped = 0;
    std::uint64_t slow_bytes = 0;
    sim.machine().space().pageTable().forEachLeaf(
        [&](Addr, Pte &pte, bool huge) {
            if (memory.tierOf(pte.pfn()) != Tier::Slow) {
                return;
            }
            slow_mapped += huge ? kSubpagesPerHuge : 1;
            slow_bytes += huge ? kPageSize2M : kPageSize4K;
        });
    EXPECT_EQ(slow_mapped,
              memory.slow().allocator().allocatedFrames());
    EXPECT_EQ(slow_bytes, sim.engine().coldBytes());
}

TEST(Invariants, ManySeeds)
{
    for (unsigned i = 0; i < kSeeds; ++i) {
        checkInvariants(1000 + i * 7919);
    }
}

} // namespace
} // namespace thermostat
