/**
 * @file
 * Fundamental types shared by every Thermostat module.
 *
 * The simulator models an x86-64 style virtual memory system with a
 * 4KB base page size and 2MB huge pages (512 base pages per huge
 * page).  Addresses, page numbers and simulated time are fixed-width
 * integers so that every experiment is bit-for-bit reproducible.
 */

#ifndef THERMOSTAT_COMMON_TYPES_HH
#define THERMOSTAT_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <limits>

namespace thermostat
{

/** A virtual or physical byte address. */
using Addr = std::uint64_t;

/** A virtual page number (address >> page shift). */
using Vpn = std::uint64_t;

/** A physical frame number. */
using Pfn = std::uint64_t;

/** Simulated time in nanoseconds. */
using Ns = std::uint64_t;

/** Counts of events (accesses, faults, migrations, ...). */
using Count = std::uint64_t;

/** Base (small) page geometry. */
constexpr unsigned kPageShift4K = 12;
constexpr Addr kPageSize4K = Addr{1} << kPageShift4K;

/** Huge page geometry. */
constexpr unsigned kPageShift2M = 21;
constexpr Addr kPageSize2M = Addr{1} << kPageShift2M;

/** Number of 4KB pages inside one 2MB huge page. */
constexpr unsigned kSubpagesPerHuge =
    static_cast<unsigned>(kPageSize2M / kPageSize4K);

/** Time unit helpers. */
constexpr Ns kNsPerUs = 1000;
constexpr Ns kNsPerMs = 1000 * kNsPerUs;
constexpr Ns kNsPerSec = 1000 * kNsPerMs;

/** Sentinel for "no frame / no page". */
constexpr std::uint64_t kInvalidPage =
    std::numeric_limits<std::uint64_t>::max();

/** Memory size helpers. */
constexpr std::uint64_t operator""_KiB(unsigned long long v)
{
    return v << 10;
}

constexpr std::uint64_t operator""_MiB(unsigned long long v)
{
    return v << 20;
}

constexpr std::uint64_t operator""_GiB(unsigned long long v)
{
    return v << 30;
}

/** Align @p addr down to the containing 4KB page boundary. */
constexpr Addr
alignDown4K(Addr addr)
{
    return addr & ~(kPageSize4K - 1);
}

/** Align @p addr down to the containing 2MB page boundary. */
constexpr Addr
alignDown2M(Addr addr)
{
    return addr & ~(kPageSize2M - 1);
}

/** Align @p addr up to the next 4KB boundary. */
constexpr Addr
alignUp4K(Addr addr)
{
    return (addr + kPageSize4K - 1) & ~(kPageSize4K - 1);
}

/** Align @p addr up to the next 2MB boundary. */
constexpr Addr
alignUp2M(Addr addr)
{
    return (addr + kPageSize2M - 1) & ~(kPageSize2M - 1);
}

/** Virtual page number (4KB granularity) of @p addr. */
constexpr Vpn
vpn4K(Addr addr)
{
    return addr >> kPageShift4K;
}

/** Virtual page number (2MB granularity) of @p addr. */
constexpr Vpn
vpn2M(Addr addr)
{
    return addr >> kPageShift2M;
}

/** Index of the 4KB subpage of @p addr within its 2MB huge page. */
constexpr unsigned
subpageIndex(Addr addr)
{
    return static_cast<unsigned>((addr >> kPageShift4K) &
                                 (kSubpagesPerHuge - 1));
}

/**
 * Number of address-hash lanes the per-run machine state is split
 * into.  The lane count is a fixed semantic constant, independent of
 * how many worker threads (`--shards`) execute the lanes: results
 * are defined per lane, so any worker count from 1 to kMachineLanes
 * produces bit-identical output.
 */
constexpr unsigned kMachineLanes = 8;

/**
 * Lane owning @p addr.  Keyed by the 2MB region so a huge page and
 * all of its 4KB subpages land in the same lane across THP split and
 * collapse; the Fibonacci hash spreads adjacent regions across
 * lanes.
 */
constexpr unsigned
laneOf(Addr addr)
{
    return static_cast<unsigned>(
        (vpn2M(addr) * 0x9e3779b97f4a7c15ULL) >> 61);
}

/**
 * Host cache-line size.  Every per-lane slice of hot machine state
 * is aligned to it (and so padded to a multiple of it), so lane
 * workers on different cores never write into the same line.
 */
constexpr std::size_t kCacheLineBytes = 64;

/** Whether a memory reference reads or writes its target. */
enum class AccessType : std::uint8_t { Read, Write };

/** The two physical memory tiers of the system. */
enum class Tier : std::uint8_t
{
    Fast, //!< Conventional DRAM (50-100ns).
    Slow  //!< Dense cheap memory, e.g. 3D XPoint (400ns-3us).
};

/** Human-readable tier name. */
constexpr const char *
tierName(Tier tier)
{
    return tier == Tier::Fast ? "fast" : "slow";
}

} // namespace thermostat

#endif // THERMOSTAT_COMMON_TYPES_HH
