#include "mem/frame_allocator.hh"

#include "common/logging.hh"

namespace thermostat
{

FrameAllocator::FrameAllocator(Pfn base_pfn, std::uint64_t frame_count)
    : basePfn_(base_pfn), frameCount_(frame_count)
{
    TSTAT_ASSERT(base_pfn % kSubpagesPerHuge == 0,
                 "FrameAllocator base not 2MB aligned");
    TSTAT_ASSERT(frame_count % kSubpagesPerHuge == 0,
                 "FrameAllocator size not a multiple of 2MB");
    const std::uint64_t blocks = frame_count / kSubpagesPerHuge;
    freeHugeBlocks_.reserve(blocks);
    // Push in reverse so allocation proceeds from low addresses.
    for (std::uint64_t i = blocks; i-- > 0;) {
        freeHugeBlocks_.push_back(base_pfn + i * kSubpagesPerHuge);
    }
}

std::optional<Pfn>
FrameAllocator::allocHuge()
{
    if (freeHugeBlocks_.empty()) {
        return std::nullopt;
    }
    const Pfn base = freeHugeBlocks_.back();
    freeHugeBlocks_.pop_back();
    allocatedFrames_ += kSubpagesPerHuge;
    return base;
}

std::optional<Pfn>
FrameAllocator::allocBase()
{
    // Prefer a frame from an already-broken block.
    for (auto &[block_base, block] : brokenBlocks_) {
        if (!block.freeList.empty()) {
            const Pfn pfn = block.freeList.back();
            block.freeList.pop_back();
            ++block.allocated;
            ++allocatedFrames_;
            return pfn;
        }
    }
    // Break a fresh huge block.
    if (freeHugeBlocks_.empty()) {
        return std::nullopt;
    }
    const Pfn base = freeHugeBlocks_.back();
    freeHugeBlocks_.pop_back();
    BrokenBlock block;
    block.freeList.reserve(kSubpagesPerHuge - 1);
    for (unsigned i = kSubpagesPerHuge; i-- > 1;) {
        block.freeList.push_back(base + i);
    }
    block.allocated = 1;
    brokenBlocks_.emplace(base, std::move(block));
    ++allocatedFrames_;
    return base;
}

void
FrameAllocator::freeHuge(Pfn base)
{
    TSTAT_ASSERT(owns(base) && base % kSubpagesPerHuge == 0,
                 "freeHuge: bad block base");
    TSTAT_ASSERT(brokenBlocks_.find(base) == brokenBlocks_.end(),
                 "freeHuge on a broken block");
    TSTAT_ASSERT(allocatedFrames_ >= kSubpagesPerHuge,
                 "freeHuge underflow");
    allocatedFrames_ -= kSubpagesPerHuge;
    freeHugeBlocks_.push_back(base);
}

void
FrameAllocator::freeBase(Pfn pfn)
{
    TSTAT_ASSERT(owns(pfn), "freeBase: pfn outside allocator");
    const Pfn block_base = pfn - (pfn % kSubpagesPerHuge);
    auto it = brokenBlocks_.find(block_base);
    TSTAT_ASSERT(it != brokenBlocks_.end(),
                 "freeBase: frame not from a broken block");
    BrokenBlock &block = it->second;
    TSTAT_ASSERT(block.allocated > 0, "freeBase: double free");
    --block.allocated;
    TSTAT_ASSERT(allocatedFrames_ > 0, "freeBase underflow");
    --allocatedFrames_;
    if (block.allocated == 0) {
        // Whole block free again: coalesce.
        brokenBlocks_.erase(it);
        freeHugeBlocks_.push_back(block_base);
    } else {
        block.freeList.push_back(pfn);
    }
}

void
FrameAllocator::breakAllocatedHuge(Pfn base)
{
    TSTAT_ASSERT(owns(base) && base % kSubpagesPerHuge == 0,
                 "breakAllocatedHuge: bad block base");
    TSTAT_ASSERT(brokenBlocks_.find(base) == brokenBlocks_.end(),
                 "breakAllocatedHuge: block already broken");
    BrokenBlock block;
    block.allocated = kSubpagesPerHuge;
    brokenBlocks_.emplace(base, std::move(block));
}

bool
FrameAllocator::reformAllocatedHuge(Pfn base)
{
    auto it = brokenBlocks_.find(base);
    if (it == brokenBlocks_.end() ||
        it->second.allocated != kSubpagesPerHuge) {
        return false;
    }
    brokenBlocks_.erase(it);
    return true;
}

bool
FrameAllocator::owns(Pfn pfn) const
{
    return pfn >= basePfn_ && pfn < basePfn_ + frameCount_;
}

std::uint64_t
FrameAllocator::freeFrames() const
{
    return frameCount_ - allocatedFrames_;
}

double
FrameAllocator::utilization() const
{
    if (frameCount_ == 0) {
        return 0.0;
    }
    return static_cast<double>(allocatedFrames_) /
           static_cast<double>(frameCount_);
}

} // namespace thermostat
