/**
 * @file
 * Physical frame allocator for one memory tier.
 *
 * Frames are managed in 2MB blocks (512 contiguous, aligned 4KB
 * frames) so that huge pages can always be backed by a naturally
 * aligned block, mirroring how Linux's buddy allocator serves THP.
 * A 2MB block can be broken to serve 4KB allocations; fully freed
 * blocks coalesce back to the huge free list.
 */

#ifndef THERMOSTAT_MEM_FRAME_ALLOCATOR_HH
#define THERMOSTAT_MEM_FRAME_ALLOCATOR_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace thermostat
{

/**
 * Allocates 4KB and 2MB frames from a contiguous PFN range
 * [basePfn, basePfn + frameCount).
 */
class FrameAllocator
{
  public:
    /**
     * @param base_pfn First 4KB frame number owned by this allocator;
     *                 must be 2MB aligned (multiple of 512).
     * @param frame_count Number of 4KB frames; multiple of 512.
     */
    FrameAllocator(Pfn base_pfn, std::uint64_t frame_count);

    /** Allocate one naturally aligned 2MB block; nullopt when full. */
    std::optional<Pfn> allocHuge();

    /** Allocate one 4KB frame; breaks a huge block if needed. */
    std::optional<Pfn> allocBase();

    /** Return a 2MB block allocated with allocHuge(). */
    void freeHuge(Pfn base);

    /** Return a 4KB frame allocated with allocBase(). */
    void freeBase(Pfn pfn);

    /**
     * Convert a block allocated with allocHuge() into 512
     * individually-allocated 4KB frames (so they can be freed one by
     * one).  Mirrors what the buddy allocator does when a THP is
     * split.  Occupancy is unchanged.
     */
    void breakAllocatedHuge(Pfn base);

    /**
     * Inverse of breakAllocatedHuge(): requires all 512 frames of
     * the block to still be allocated.
     * @return false if any frame of the block has been freed.
     */
    bool reformAllocatedHuge(Pfn base);

    Pfn basePfn() const { return basePfn_; }
    std::uint64_t frameCount() const { return frameCount_; }

    /** Whether @p pfn lies in this allocator's range. */
    bool owns(Pfn pfn) const;

    /** Currently allocated 4KB-frame count (huge blocks count 512). */
    std::uint64_t allocatedFrames() const { return allocatedFrames_; }

    /** Free 4KB-frame count. */
    std::uint64_t freeFrames() const;

    /** Fraction of capacity currently allocated, in [0, 1]. */
    double utilization() const;

  private:
    struct BrokenBlock
    {
        std::vector<Pfn> freeList; //!< free 4KB frames in the block
        unsigned allocated = 0;    //!< allocated frames in the block
    };

    Pfn basePfn_;
    std::uint64_t frameCount_;
    std::uint64_t allocatedFrames_ = 0;

    /** Free (whole) 2MB blocks, by base PFN; LIFO for locality. */
    std::vector<Pfn> freeHugeBlocks_;

    /** Blocks currently broken into 4KB frames, by block base PFN. */
    // Touched only by 4KB allocation and free, never on the
    // per-access path.  lint:allow(hot-path-unordered-map)
    std::unordered_map<Pfn, BrokenBlock> brokenBlocks_;
};

} // namespace thermostat

#endif // THERMOSTAT_MEM_FRAME_ALLOCATOR_HH
