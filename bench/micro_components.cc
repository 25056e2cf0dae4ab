/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot simulator
 * components: page-table walks, TLB lookups, LLC accesses, the
 * poison-fault path, Zipf sampling, the Feistel permutation, the
 * scattered Zipf reference draw, whole-workload draws (RNG pass and
 * full sample) and Start-Gap remapping.  These bound the simulator's
 * own cost and guard against performance regressions in the
 * substrate.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/llc.hh"
#include "common/permutation.hh"
#include "common/rng.hh"
#include "mem/wear_leveler.hh"
#include "sim/machine.hh"
#include "sys/kstaled.hh"
#include "workload/access_pattern.hh"
#include "workload/cloud_apps.hh"

namespace thermostat
{
namespace
{

MachineConfig
benchConfig()
{
    MachineConfig config;
    config.fastTier = TierConfig::dram(1ULL << 30);
    config.slowTier = TierConfig::slow(1ULL << 30);
    config.llc.sizeBytes = 4_MiB;
    return config;
}

void
BM_PageTableWalk(benchmark::State &state)
{
    PageTable pt;
    const Addr base = Addr{4} << 30;
    for (unsigned i = 0; i < 256; ++i) {
        pt.map2M(base + i * kPageSize2M, i * kSubpagesPerHuge);
    }
    Rng rng(1);
    for (auto _ : state) {
        const Addr addr =
            base + rng.nextBounded(256) * kPageSize2M + 64;
        benchmark::DoNotOptimize(pt.walk(addr).pte);
    }
}
BENCHMARK(BM_PageTableWalk);

void
BM_TlbLookupHit(benchmark::State &state)
{
    Tlb tlb({64, 4});
    const Addr base = Addr{4} << 30;
    tlb.insert(base, 0, true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(base + 128));
    }
}
BENCHMARK(BM_TlbLookupHit);

void
BM_LlcAccess(benchmark::State &state)
{
    LlcConfig config;
    config.sizeBytes = 4_MiB;
    LastLevelCache llc(config);
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            llc.access(rng.nextBounded(64_MiB), AccessType::Read));
    }
}
BENCHMARK(BM_LlcAccess);

void
BM_MachineAccessPath(benchmark::State &state)
{
    Machine machine(benchConfig());
    const Addr heap = machine.space().mapRegion("heap", 256_MiB);
    Rng rng(3);
    for (auto _ : state) {
        const Addr addr = heap + rng.nextBounded(256_MiB);
        benchmark::DoNotOptimize(
            machine.access(addr & ~Addr{63}, AccessType::Read, 1,
                           4));
    }
}
BENCHMARK(BM_MachineAccessPath);

void
BM_PoisonFaultPath(benchmark::State &state)
{
    Machine machine(benchConfig());
    const Addr heap = machine.space().mapRegion("heap", 2_MiB);
    machine.trap().poison(heap);
    for (auto _ : state) {
        machine.tlb().invalidatePage(heap);
        benchmark::DoNotOptimize(
            machine.access(heap, AccessType::Read));
    }
}
BENCHMARK(BM_PoisonFaultPath);

void
BM_ZipfSample(benchmark::State &state)
{
    ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)),
                     0.9);
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(zipf.sample(rng));
    }
}
BENCHMARK(BM_ZipfSample)->Arg(1 << 10)->Arg(1 << 20);

void
BM_FeistelPermutation(benchmark::State &state)
{
    FixedPermutation perm(17'000'000, 5);
    Rng rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            perm.map(rng.nextBounded(17'000'000)));
    }
}
BENCHMARK(BM_FeistelPermutation);

/**
 * One scattered Zipf draw at in-memory-analytics' geometry (281,600
 * 4 KB objects, theta 0.6): memo:0 maps every rank through the
 * cycle-walking Feistel network, memo:1 is ZipfianPattern::next with
 * its memoized slot table.
 */
void
BM_ScatteredZipfDraw(benchmark::State &state)
{
    constexpr std::uint64_t kObjects = 281'600;
    constexpr std::uint64_t kSpan = kObjects * 4096;
    Rng rng(7);
    if (state.range(0) == 0) {
        const ZipfSampler zipf(kObjects, 0.6);
        const FixedPermutation perm(kObjects, 7);
        const BoundedDraw within(4096 / 64);
        for (auto _ : state) {
            benchmark::DoNotOptimize(std::min(
                perm.map(zipf.sample(rng)) * 4096 + within(rng) * 64,
                kSpan - 1));
        }
    } else {
        ZipfianPattern pattern(kSpan, 4096, 0.6, true, 7);
        for (auto _ : state) {
            benchmark::DoNotOptimize(pattern.next(rng));
        }
    }
}
BENCHMARK(BM_ScatteredZipfDraw)->ArgName("memo")->Arg(0)->Arg(1);

/**
 * One reference of a whole application workload at seed 1, in ns per
 * reference (the `ref` counter): rng_only:1 is the serial RNG pass
 * alone (Workload::draw over 1024-reference blocks), rng_only:0 the
 * full Workload::sample (draw, then resolve, one reference at a
 * time).  A sharded run resolves on the pool, so the RNG pass is the
 * serial floor that remains.
 */
void
BM_WorkloadDraw(benchmark::State &state)
{
    static const char *const kApps[] = {"in-memory-analytics",
                                        "cassandra", "redis"};
    constexpr std::size_t kBlock = 1024;
    const char *app = kApps[state.range(0)];
    TieredMemory memory(TierConfig::dram(24ULL << 30),
                        TierConfig::slow(4ULL << 30));
    AddressSpace space(memory);
    std::unique_ptr<ComposedWorkload> workload = makeWorkload(app, 1);
    workload->setup(space);
    Rng rng(1);
    std::vector<RefDraw> tokens(kBlock);
    for (auto _ : state) {
        if (state.range(1) == 1) {
            workload->draw(rng, tokens);
            benchmark::DoNotOptimize(tokens.data());
        } else {
            for (std::size_t i = 0; i < kBlock; ++i) {
                benchmark::DoNotOptimize(workload->sample(rng).addr);
            }
        }
    }
    state.counters["ref"] = benchmark::Counter(
        kBlock, benchmark::Counter::kIsIterationInvariantRate |
                    benchmark::Counter::kInvert);
    state.SetLabel(app);
}
BENCHMARK(BM_WorkloadDraw)
    ->ArgNames({"app", "rng_only"})
    ->ArgsProduct({{0, 1, 2}, {1, 0}});

void
BM_StartGapRemap(benchmark::State &state)
{
    StartGapWearLeveler wl(1 << 20, 100, 6);
    Rng rng(6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            wl.remap(rng.nextBounded(1 << 20)));
        wl.recordWrite();
    }
}
BENCHMARK(BM_StartGapRemap);

void
BM_KstaledScanPerPte(benchmark::State &state)
{
    TieredMemory memory(TierConfig::dram(256_MiB),
                        TierConfig::slow(64_MiB));
    AddressSpace space(memory);
    TlbShards tlb({64, 4}, {1024, 8});
    Kstaled kstaled(space, tlb);
    space.mapRegion("heap", 128_MiB);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kstaled.scanAll().scannedPtes);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_KstaledScanPerPte);

} // namespace
} // namespace thermostat

BENCHMARK_MAIN();
