/**
 * @file
 * Bit-accurate x86-64 page table entry.
 *
 * Thermostat's mechanisms manipulate PTE state directly: the
 * hardware-maintained Accessed/Dirty bits (Sec 2.1), and the
 * software-reserved bit 51 that BadgerTrap uses to poison a
 * translation so the next TLB miss faults (Sec 3.3).  This class
 * models the relevant bits of the 64-bit entry exactly.
 */

#ifndef THERMOSTAT_VM_PTE_HH
#define THERMOSTAT_VM_PTE_HH

#include <cstdint>

#include "common/types.hh"

namespace thermostat
{

/**
 * One 64-bit x86-64 page table entry.
 *
 * Layout (bits used by this model):
 *   0  P    present
 *   1  R/W  writable
 *   2  U/S  user
 *   5  A    accessed (set by the page walker)
 *   6  D    dirty (set by the page walker on write)
 *   7  PS   page size (2MB leaf when set in a PD entry)
 *   12..50  physical frame number
 *   51      reserved; set by BadgerTrap to poison the entry
 */
class Pte
{
  public:
    static constexpr std::uint64_t kPresent = 1ULL << 0;
    static constexpr std::uint64_t kWritable = 1ULL << 1;
    static constexpr std::uint64_t kUser = 1ULL << 2;
    static constexpr std::uint64_t kAccessed = 1ULL << 5;
    static constexpr std::uint64_t kDirty = 1ULL << 6;
    static constexpr std::uint64_t kPageSize = 1ULL << 7;
    static constexpr std::uint64_t kPoison = 1ULL << 51;

    static constexpr unsigned kPfnShift = 12;
    static constexpr std::uint64_t kPfnMask =
        ((1ULL << 39) - 1) << kPfnShift; // bits 12..50

    Pte() = default;
    explicit Pte(std::uint64_t raw) : raw_(raw) {}

    /** Build a present leaf entry mapping @p pfn. */
    static Pte
    makeLeaf(Pfn pfn, bool huge, bool writable = true)
    {
        std::uint64_t raw = kPresent | kUser;
        if (writable) {
            raw |= kWritable;
        }
        if (huge) {
            raw |= kPageSize;
        }
        raw |= (pfn << kPfnShift) & kPfnMask;
        return Pte(raw);
    }

    std::uint64_t raw() const { return raw_; }

    bool present() const { return raw_ & kPresent; }
    bool writable() const { return raw_ & kWritable; }
    bool accessed() const { return raw_ & kAccessed; }
    bool dirty() const { return raw_ & kDirty; }
    bool huge() const { return raw_ & kPageSize; }
    bool poisoned() const { return raw_ & kPoison; }

    Pfn pfn() const { return (raw_ & kPfnMask) >> kPfnShift; }

    void
    setPfn(Pfn pfn)
    {
        raw_ = (raw_ & ~kPfnMask) | ((pfn << kPfnShift) & kPfnMask);
    }

    void setAccessed() { setOnce(kAccessed); }
    void clearAccessed() { raw_ &= ~kAccessed; }
    void setDirty() { setOnce(kDirty); }
    void clearDirty() { raw_ &= ~kDirty; }
    void poison() { raw_ |= kPoison; }
    void unpoison() { raw_ &= ~kPoison; }
    void setPresent(bool p)
    {
        raw_ = p ? (raw_ | kPresent) : (raw_ & ~kPresent);
    }

    bool operator==(const Pte &other) const = default;

  private:
    /** Store only on a change: lane workers set bits on PTEs that
     *  share cache lines, and redundant stores bounce the lines. */
    void
    setOnce(std::uint64_t bit)
    {
        if ((raw_ & bit) == 0) {
            raw_ |= bit;
        }
    }

    std::uint64_t raw_ = 0;
};

} // namespace thermostat

#endif // THERMOSTAT_VM_PTE_HH
