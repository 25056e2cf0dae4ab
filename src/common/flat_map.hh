/**
 * @file
 * Open-addressing hash map for the simulator's per-page/per-frame
 * counter tables (BadgerTrap fault counts, kstaled idle state, frame
 * wear).
 *
 * These tables sit on the per-access hot path, where
 * `std::unordered_map`'s node allocation and pointer chasing
 * dominate; a flat table with linear probing keeps each probe inside
 * one or two cache lines.  Keys are integers (addresses / frame
 * numbers) mixed through a splitmix64-style finalizer; capacity is
 * a power of two so the slot index is a mask, not a division.
 *
 * Deletion uses tombstones; rehashing (growth or explicit reserve)
 * drops them.  Iterators walk occupied slots only and are
 * invalidated by any mutation, like unordered_map on rehash --
 * callers here never hold one across an insert.
 */

#ifndef THERMOSTAT_COMMON_FLAT_MAP_HH
#define THERMOSTAT_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace thermostat
{

/** splitmix64 finalizer: a cheap, well-mixed integer hash. */
constexpr std::uint64_t
mixHash64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Open-addressing map from an integer key type to a
 * default-constructible value.
 */
template <typename Key, typename Value>
class FlatMap
{
    enum class SlotState : std::uint8_t
    {
        Empty,
        Occupied,
        Tombstone
    };

    struct Slot
    {
        Key key{};
        Value value{};
    };

  public:
    using value_type = Slot;

    /** Forward iterator over occupied slots. */
    template <bool Const>
    class Iter
    {
        using MapPtr =
            std::conditional_t<Const, const FlatMap *, FlatMap *>;

      public:
        Iter(MapPtr map, std::size_t index)
            : map_(map), index_(index)
        {
            skipToOccupied();
        }

        auto &operator*() const { return map_->slots_[index_]; }
        auto *operator->() const { return &map_->slots_[index_]; }

        Iter &
        operator++()
        {
            ++index_;
            skipToOccupied();
            return *this;
        }

        bool
        operator==(const Iter &other) const
        {
            return index_ == other.index_;
        }

        bool
        operator!=(const Iter &other) const
        {
            return index_ != other.index_;
        }

      private:
        void
        skipToOccupied()
        {
            while (index_ < map_->states_.size() &&
                   map_->states_[index_] != SlotState::Occupied) {
                ++index_;
            }
        }

        MapPtr map_;
        std::size_t index_;

        friend class FlatMap;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatMap() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Number of slots (for load-factor tests). */
    std::size_t capacity() const { return slots_.size(); }

    void
    clear()
    {
        slots_.clear();
        states_.clear();
        size_ = 0;
        used_ = 0;
    }

    /** Grow so @p n entries fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = kMinCapacity;
        while (want * kMaxLoadDen < n * kMaxLoadNum) {
            want <<= 1;
        }
        if (want > slots_.size()) {
            rehash(want);
        }
    }

    Value &
    operator[](const Key &key)
    {
        if (needsGrowth()) {
            grow();
        }
        const auto [index, found] = probe(key);
        if (found) {
            return slots_[index].value;
        }
        if (states_[index] == SlotState::Empty) {
            ++used_;
        }
        states_[index] = SlotState::Occupied;
        slots_[index].key = key;
        slots_[index].value = Value{};
        ++size_;
        return slots_[index].value;
    }

    iterator
    find(const Key &key)
    {
        if (size_ == 0) {
            return end();
        }
        const auto [index, found] = probe(key);
        return found ? iterator(this, index) : end();
    }

    const_iterator
    find(const Key &key) const
    {
        if (size_ == 0) {
            return end();
        }
        const auto [index, found] = probe(key);
        return found ? const_iterator(this, index) : end();
    }

    bool
    contains(const Key &key) const
    {
        return find(key) != end();
    }

    /** @return number of entries removed (0 or 1). */
    std::size_t
    erase(const Key &key)
    {
        if (size_ == 0) {
            return 0;
        }
        const auto [index, found] = probe(key);
        if (!found) {
            return 0;
        }
        states_[index] = SlotState::Tombstone;
        slots_[index] = Slot{};
        --size_;
        return 1;
    }

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, slots_.size()); }
    const_iterator begin() const
    {
        return const_iterator(this, 0);
    }
    const_iterator end() const
    {
        return const_iterator(this, slots_.size());
    }

  private:
    static constexpr std::size_t kMinCapacity = 16;
    // Grow past 7/8 of live+tombstone slots.
    static constexpr std::size_t kMaxLoadNum = 8;
    static constexpr std::size_t kMaxLoadDen = 7;

    bool
    needsGrowth() const
    {
        return slots_.empty() ||
               (used_ + 1) * kMaxLoadNum > slots_.size() * kMaxLoadDen;
    }

    /**
     * Find @p key, or the slot where it would be inserted.
     * @return {slot index, key present}.  With an empty table the
     * caller must grow first.
     */
    std::pair<std::size_t, bool>
    probe(const Key &key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t index =
            static_cast<std::size_t>(
                mixHash64(static_cast<std::uint64_t>(key))) &
            mask;
        std::size_t first_tombstone = slots_.size();
        for (;;) {
            const SlotState state = states_[index];
            if (state == SlotState::Occupied) {
                if (slots_[index].key == key) {
                    return {index, true};
                }
            } else if (state == SlotState::Empty) {
                return {first_tombstone < slots_.size()
                            ? first_tombstone
                            : index,
                        false};
            } else if (first_tombstone == slots_.size()) {
                first_tombstone = index;
            }
            index = (index + 1) & mask;
        }
    }

    void
    grow()
    {
        // Double when genuinely full; same size when tombstones are
        // the problem (rehashing drops them).
        const std::size_t target =
            slots_.empty()
                ? kMinCapacity
                : ((size_ + 1) * kMaxLoadNum >
                           slots_.size() * kMaxLoadDen
                       ? slots_.size() * 2
                       : slots_.size());
        rehash(target);
    }

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<Slot> old_slots = std::move(slots_);
        std::vector<SlotState> old_states = std::move(states_);
        slots_.assign(new_capacity, Slot{});
        states_.assign(new_capacity, SlotState::Empty);
        size_ = 0;
        used_ = 0;
        for (std::size_t i = 0; i < old_slots.size(); ++i) {
            if (old_states[i] == SlotState::Occupied) {
                (*this)[old_slots[i].key] =
                    std::move(old_slots[i].value);
            }
        }
    }

    std::vector<Slot> slots_;
    std::vector<SlotState> states_;
    std::size_t size_ = 0; //!< occupied slots
    std::size_t used_ = 0; //!< occupied + tombstone slots
};

} // namespace thermostat

#endif // THERMOSTAT_COMMON_FLAT_MAP_HH
