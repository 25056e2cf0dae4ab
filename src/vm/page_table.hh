/**
 * @file
 * Four-level x86-64 radix page table with transparent-huge-page
 * support.
 *
 * Leaves exist at two levels: PD entries with the PS bit map 2MB
 * huge pages; PT entries map 4KB base pages.  split() converts a 2MB
 * leaf into a PT of 512 base-page entries that keep pointing at the
 * same contiguous physical block, exactly what Linux's THP split
 * does and what Thermostat's sampler relies on (Sec 3.2: "we split a
 * random sample of huge pages into 4KB pages").  collapse() is the
 * khugepaged-style inverse.
 */

#ifndef THERMOSTAT_VM_PAGE_TABLE_HH
#define THERMOSTAT_VM_PAGE_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/types.hh"
#include "vm/pte.hh"

namespace thermostat
{

/** Result of a page table walk. */
struct WalkResult
{
    Pte *pte = nullptr; //!< leaf entry, or nullptr if unmapped
    bool huge = false;  //!< leaf maps a 2MB page

    bool mapped() const { return pte != nullptr; }
};

/**
 * The 4-level table.  Upper-level (non-leaf) entries are modeled as
 * child pointers; leaf entries are bit-accurate Pte values.
 */
class PageTable
{
  public:
    PageTable();
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /** Map a 2MB-aligned virtual address to a 2MB-aligned block. */
    void map2M(Addr vaddr, Pfn pfn);

    /** Map a 4KB-aligned virtual address to a 4KB frame. */
    void map4K(Addr vaddr, Pfn pfn);

    /** Remove the leaf mapping 2MB page at @p vaddr. */
    void unmap2M(Addr vaddr);

    /** Remove the 4KB leaf mapping at @p vaddr. */
    void unmap4K(Addr vaddr);

    /**
     * Find the leaf entry translating @p vaddr.  Does not touch
     * Accessed/Dirty bits; the PageWalker does that.  Defined inline
     * below: the walk-cache hit path runs on every TLB miss and
     * BadgerTrap replay, so it must not pay a cross-TU call.
     */
    WalkResult walk(Addr vaddr);

    /**
     * Split the 2MB leaf at @p vaddr into 512 4KB leaves backed by
     * the same contiguous frames, preserving flags; A/D bits are
     * propagated to every subpage.
     * @return false if @p vaddr is not mapped by a 2MB leaf.
     */
    bool split(Addr vaddr);

    /**
     * Collapse 512 4KB leaves back into one 2MB leaf.  Requires all
     * 512 entries present and physically contiguous starting at a
     * 2MB-aligned frame.  A/D/poison bits are OR-folded.
     * @return false when the preconditions do not hold.
     */
    bool collapse(Addr vaddr);

    /**
     * Visit every leaf.  The callback receives the virtual base
     * address of the page, a mutable entry reference, and whether the
     * leaf is huge.
     */
    void forEachLeaf(
        const std::function<void(Addr, Pte &, bool)> &visit);

    /**
     * Dense view of the leaves covering one 2MB region: either the
     * huge leaf, or the contiguous 512-entry PT array when the
     * region is split (entries may individually be non-present).
     * Lets region-granular scans (kstaled clears after a split, the
     * sampler's subpage poison pass) run over a flat array instead
     * of 512 independent walks.
     */
    struct RegionLeaves
    {
        Pte *huge = nullptr;      //!< 2MB leaf, when huge-mapped
        Pte *ptEntries = nullptr; //!< PT entry array, when split
        bool mapped() const { return huge || ptEntries; }
    };
    RegionLeaves regionLeaves(Addr region_base);

    std::uint64_t hugeLeafCount() const { return hugeLeaves_; }
    std::uint64_t baseLeafCount() const { return baseLeaves_; }

    /** Number of table nodes currently allocated (all levels). */
    std::uint64_t nodeCount() const { return nodes_; }

  private:
    struct Node;

    static constexpr std::size_t kWalkCacheSize = 1024; //!< 2MB regions

    /** One walk-cache slot; valid only while gen matches walkGen_. */
    struct WalkCacheEntry
    {
        Addr tag = ~Addr{0}; //!< vaddr >> 21
        std::uint64_t gen = 0;
        Pte *pdEntry = nullptr; //!< huge leaf, when 2MB-mapped
        Pte *ptEntries = nullptr; //!< PT entry array, when 4KB-mapped
    };

    static unsigned
    indexAt(Addr vaddr, int level)
    {
        // level 0 = PML4 (bits 47..39) ... level 3 = PT (bits 20..12)
        const unsigned shift = 39 - 9 * static_cast<unsigned>(level);
        return static_cast<unsigned>((vaddr >> shift) & 0x1ff);
    }

    /**
     * Walk-cache slot for the 2MB region holding @p vaddr.  The
     * cache is partitioned into kMachineLanes equal segments, each
     * indexed only by laneOf(vaddr), the lane owning the region, so
     * concurrent lane workers never collide on a slot and the
     * partitioning is semantically invisible -- the cache is pure
     * memoization, walk() returns identical results on hit or miss.
     */
    static std::size_t
    walkCacheSlot(Addr vaddr)
    {
        constexpr std::size_t kSlotsPerLane =
            kWalkCacheSize / kMachineLanes;
        return laneOf(vaddr) * kSlotsPerLane +
               (vpn2M(vaddr) & (kSlotsPerLane - 1));
    }

    /** Full table descent on a walk-cache miss; fills the slot. */
    WalkResult walkSlow(Addr vaddr);

    /** Walk down to the PD node covering @p vaddr, creating levels. */
    Node *pdNodeFor(Addr vaddr, bool create);

    Node *newNode();
    void visitNode(Node *node, int level, Addr base,
                   const std::function<void(Addr, Pte &, bool)> &visit);

    /** Any structural change invalidates the walk cache wholesale. */
    void invalidateWalkCache() { ++walkGen_; }

    std::unique_ptr<Node> root_; // shard: read-only
    std::uint64_t hugeLeaves_ = 0; // shard: read-only
    std::uint64_t baseLeaves_ = 0; // shard: read-only
    std::uint64_t nodes_ = 0; // shard: read-only

    /**
     * Direct-mapped cache of resolved PD-level state per 2MB region:
     * either the huge leaf entry or the PT node backing the region.
     * Entries are valid only while their generation matches walkGen_;
     * every map/unmap/split/collapse bumps the generation, so walk()
     * never observes stale structure.
     */
    std::unique_ptr<WalkCacheEntry[]> walkCache_; // shard: read-only
    std::uint64_t walkGen_ = 1; // shard: read-only
};

inline WalkResult
PageTable::walk(Addr vaddr)
{
    const Addr tag = vaddr >> kPageShift2M;
    WalkCacheEntry &slot = walkCache_[walkCacheSlot(vaddr)];
    if (slot.tag == tag && slot.gen == walkGen_) {
        if (slot.pdEntry) {
            return {slot.pdEntry, true};
        }
        Pte &pt_entry = slot.ptEntries[indexAt(vaddr, 3)];
        if (!pt_entry.present()) {
            return {};
        }
        return {&pt_entry, false};
    }
    return walkSlow(vaddr);
}

} // namespace thermostat

#endif // THERMOSTAT_VM_PAGE_TABLE_HH
