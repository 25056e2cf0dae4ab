#include "vm/page_table.hh"

#include "common/logging.hh"

namespace thermostat
{

namespace
{

constexpr int kLevels = 4;         // PML4, PDPT, PD, PT
constexpr unsigned kFanout = 512;  // 9 bits per level

} // namespace

/**
 * A table node at any level.  Inner levels use children[]; leaf
 * levels (PD for huge, PT for base) use entries[].
 */
struct PageTable::Node
{
    std::array<Pte, kFanout> entries{};
    std::array<std::unique_ptr<Node>, kFanout> children{};
};

PageTable::PageTable()
    : root_(std::make_unique<Node>()),
      walkCache_(new WalkCacheEntry[kWalkCacheSize])
{
    nodes_ = 1;
}

PageTable::~PageTable() = default;

PageTable::Node *
PageTable::newNode()
{
    ++nodes_;
    return new Node();
}

PageTable::Node *
PageTable::pdNodeFor(Addr vaddr, bool create)
{
    Node *node = root_.get();
    for (int level = 0; level < 2; ++level) {
        const unsigned idx = indexAt(vaddr, level);
        if (!node->children[idx]) {
            if (!create) {
                return nullptr;
            }
            node->children[idx].reset(newNode());
        }
        node = node->children[idx].get();
    }
    return node;
}

void
PageTable::map2M(Addr vaddr, Pfn pfn)
{
    invalidateWalkCache();
    TSTAT_ASSERT(vaddr % kPageSize2M == 0, "map2M: unaligned vaddr");
    TSTAT_ASSERT(pfn % kSubpagesPerHuge == 0, "map2M: unaligned pfn");
    Node *pd = pdNodeFor(vaddr, true);
    const unsigned idx = indexAt(vaddr, 2);
    TSTAT_ASSERT(!pd->entries[idx].present() && !pd->children[idx],
                 "map2M over existing mapping");
    pd->entries[idx] = Pte::makeLeaf(pfn, true);
    ++hugeLeaves_;
}

void
PageTable::map4K(Addr vaddr, Pfn pfn)
{
    invalidateWalkCache();
    TSTAT_ASSERT(vaddr % kPageSize4K == 0, "map4K: unaligned vaddr");
    Node *pd = pdNodeFor(vaddr, true);
    const unsigned pd_idx = indexAt(vaddr, 2);
    TSTAT_ASSERT(!pd->entries[pd_idx].present(),
                 "map4K under an existing 2MB leaf");
    if (!pd->children[pd_idx]) {
        pd->children[pd_idx].reset(newNode());
    }
    Node *pt = pd->children[pd_idx].get();
    const unsigned pt_idx = indexAt(vaddr, 3);
    TSTAT_ASSERT(!pt->entries[pt_idx].present(),
                 "map4K over existing mapping");
    pt->entries[pt_idx] = Pte::makeLeaf(pfn, false);
    ++baseLeaves_;
}

void
PageTable::unmap2M(Addr vaddr)
{
    invalidateWalkCache();
    Node *pd = pdNodeFor(vaddr, false);
    const unsigned idx = indexAt(vaddr, 2);
    TSTAT_ASSERT(pd && pd->entries[idx].present() &&
                     pd->entries[idx].huge(),
                 "unmap2M: no huge leaf at vaddr");
    pd->entries[idx] = Pte();
    TSTAT_ASSERT(hugeLeaves_ > 0, "huge leaf count underflow");
    --hugeLeaves_;
}

void
PageTable::unmap4K(Addr vaddr)
{
    invalidateWalkCache();
    Node *pd = pdNodeFor(vaddr, false);
    const unsigned pd_idx = indexAt(vaddr, 2);
    TSTAT_ASSERT(pd && pd->children[pd_idx], "unmap4K: no PT");
    Node *pt = pd->children[pd_idx].get();
    const unsigned pt_idx = indexAt(vaddr, 3);
    TSTAT_ASSERT(pt->entries[pt_idx].present(),
                 "unmap4K: not mapped");
    pt->entries[pt_idx] = Pte();
    TSTAT_ASSERT(baseLeaves_ > 0, "base leaf count underflow");
    --baseLeaves_;
    // Free the page-table node once it holds no mappings, so the
    // slot can later be reused by a 2MB leaf.
    for (const Pte &entry : pt->entries) {
        if (entry.present()) {
            return;
        }
    }
    pd->children[pd_idx].reset();
    TSTAT_ASSERT(nodes_ > 0, "node count underflow");
    --nodes_;
}

WalkResult
PageTable::walkSlow(Addr vaddr)
{
    const Addr tag = vaddr >> kPageShift2M;
    WalkCacheEntry &slot = walkCache_[walkCacheSlot(vaddr)];
    Node *pd = pdNodeFor(vaddr, false);
    if (!pd) {
        return {};
    }
    const unsigned pd_idx = indexAt(vaddr, 2);
    Pte &pd_entry = pd->entries[pd_idx];
    if (pd_entry.present() && pd_entry.huge()) {
        slot = {tag, walkGen_, &pd_entry, nullptr};
        return {&pd_entry, true};
    }
    Node *pt = pd->children[pd_idx].get();
    if (!pt) {
        return {};
    }
    slot = {tag, walkGen_, nullptr, pt->entries.data()};
    Pte &pt_entry = pt->entries[indexAt(vaddr, 3)];
    if (!pt_entry.present()) {
        return {};
    }
    return {&pt_entry, false};
}

PageTable::RegionLeaves
PageTable::regionLeaves(Addr region_base)
{
    const Addr tag = region_base >> kPageShift2M;
    WalkCacheEntry &slot = walkCache_[walkCacheSlot(region_base)];
    if (slot.tag == tag && slot.gen == walkGen_) {
        return {slot.pdEntry, slot.ptEntries};
    }
    Node *pd = pdNodeFor(region_base, false);
    if (!pd) {
        return {};
    }
    const unsigned pd_idx = indexAt(region_base, 2);
    Pte &pd_entry = pd->entries[pd_idx];
    if (pd_entry.present() && pd_entry.huge()) {
        slot = {tag, walkGen_, &pd_entry, nullptr};
        return {&pd_entry, nullptr};
    }
    Node *pt = pd->children[pd_idx].get();
    if (!pt) {
        return {};
    }
    slot = {tag, walkGen_, nullptr, pt->entries.data()};
    return {nullptr, pt->entries.data()};
}

bool
PageTable::split(Addr vaddr)
{
    invalidateWalkCache();
    TSTAT_ASSERT(vaddr % kPageSize2M == 0, "split: unaligned vaddr");
    Node *pd = pdNodeFor(vaddr, false);
    if (!pd) {
        return false;
    }
    const unsigned pd_idx = indexAt(vaddr, 2);
    Pte &huge_pte = pd->entries[pd_idx];
    if (!huge_pte.present() || !huge_pte.huge()) {
        return false;
    }
    auto pt = std::unique_ptr<Node>(newNode());
    const Pfn base_pfn = huge_pte.pfn();
    for (unsigned i = 0; i < kSubpagesPerHuge; ++i) {
        Pte sub = Pte::makeLeaf(base_pfn + i, false,
                                huge_pte.writable());
        if (huge_pte.accessed()) {
            sub.setAccessed();
        }
        if (huge_pte.dirty()) {
            sub.setDirty();
        }
        if (huge_pte.poisoned()) {
            sub.poison();
        }
        pt->entries[i] = sub;
    }
    huge_pte = Pte();
    pd->children[pd_idx] = std::move(pt);
    --hugeLeaves_;
    baseLeaves_ += kSubpagesPerHuge;
    return true;
}

bool
PageTable::collapse(Addr vaddr)
{
    invalidateWalkCache();
    TSTAT_ASSERT(vaddr % kPageSize2M == 0, "collapse: unaligned vaddr");
    Node *pd = pdNodeFor(vaddr, false);
    if (!pd) {
        return false;
    }
    const unsigned pd_idx = indexAt(vaddr, 2);
    if (pd->entries[pd_idx].present() || !pd->children[pd_idx]) {
        return false;
    }
    Node *pt = pd->children[pd_idx].get();
    const Pte first = pt->entries[0];
    if (!first.present()) {
        return false;
    }
    const Pfn base_pfn = first.pfn();
    if (base_pfn % kSubpagesPerHuge != 0) {
        return false;
    }
    bool accessed = false;
    bool dirty = false;
    bool poisoned = false;
    for (unsigned i = 0; i < kSubpagesPerHuge; ++i) {
        const Pte &sub = pt->entries[i];
        if (!sub.present() || sub.pfn() != base_pfn + i ||
            sub.writable() != first.writable()) {
            return false;
        }
        accessed |= sub.accessed();
        dirty |= sub.dirty();
        poisoned |= sub.poisoned();
    }
    Pte huge_pte = Pte::makeLeaf(base_pfn, true, first.writable());
    if (accessed) {
        huge_pte.setAccessed();
    }
    if (dirty) {
        huge_pte.setDirty();
    }
    if (poisoned) {
        huge_pte.poison();
    }
    pd->children[pd_idx].reset();
    TSTAT_ASSERT(nodes_ > 0, "node count underflow");
    --nodes_;
    pd->entries[pd_idx] = huge_pte;
    ++hugeLeaves_;
    TSTAT_ASSERT(baseLeaves_ >= kSubpagesPerHuge,
                 "base leaf count underflow");
    baseLeaves_ -= kSubpagesPerHuge;
    return true;
}

void
PageTable::visitNode(Node *node, int level, Addr base,
                     const std::function<void(Addr, Pte &, bool)> &visit)
{
    const unsigned shift = 39 - 9 * static_cast<unsigned>(level);
    for (unsigned i = 0; i < kFanout; ++i) {
        const Addr child_base =
            base | (static_cast<Addr>(i) << shift);
        if (level == 2 && node->entries[i].present()) {
            visit(child_base, node->entries[i], true);
        }
        if (level == 3) {
            if (node->entries[i].present()) {
                visit(child_base, node->entries[i], false);
            }
            continue;
        }
        if (node->children[i]) {
            visitNode(node->children[i].get(), level + 1, child_base,
                      visit);
        }
    }
}

void
PageTable::forEachLeaf(
    const std::function<void(Addr, Pte &, bool)> &visit)
{
    visitNode(root_.get(), 0, 0, visit);
}

} // namespace thermostat
