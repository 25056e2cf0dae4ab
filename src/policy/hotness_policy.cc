#include "policy/hotness_policy.hh"

#include <algorithm>
#include <vector>

namespace thermostat
{

namespace
{
const std::string kName = "hotness";
} // namespace

const std::string &
HotnessPolicy::name() const
{
    return kName;
}

void
HotnessPolicy::onProfiledAccess(Addr base, bool huge, bool write,
                                Count weight, std::uint64_t seq)
{
    (void)huge;
    (void)write;
    (void)seq;
    window_[base] += weight;
}

void
HotnessPolicy::tick(Ns now)
{
    ++stats_.ticks;
    if (now < nextDecision_) {
        return;
    }
    if (now > 0) {
        runPeriod(now);
    }
    lastDecision_ = now;
    nextDecision_ = now + params().decisionPeriod;
}

void
HotnessPolicy::runPeriod(Ns now)
{
    ++stats_.decisionPeriods;
    const double period_sec =
        static_cast<double>(now - lastDecision_) /
        static_cast<double>(kNsPerSec);

    // Promotion pass: placed pages that turned hot this window,
    // hottest first, bounded by the per-period batch (Nomad's
    // transaction-budget analogue).
    struct Hot
    {
        Addr base;
        bool huge;
        Count count;
    };
    std::vector<Hot> hot;
    for (const Addr base : placedHuge_) {
        const Count *count = window_.find(base);
        if (count == nullptr) {
            continue;
        }
        if (static_cast<double>(*count) / period_sec >=
            params().promoteRateThreshold) {
            hot.push_back({base, true, *count});
        }
    }
    for (const Addr base : placedBase_) {
        const Count *count = window_.find(base);
        if (count == nullptr) {
            continue;
        }
        if (static_cast<double>(*count) / period_sec >=
            params().promoteRateThreshold) {
            hot.push_back({base, false, *count});
        }
    }
    std::sort(hot.begin(), hot.end(), [](const Hot &a, const Hot &b) {
        if (a.count != b.count) {
            return a.count > b.count;
        }
        return a.base < b.base;
    });
    std::size_t promoted = 0;
    for (const Hot &h : hot) {
        if (promoted >= params().promoteBatch) {
            break;
        }
        if (promotePage(h.base, h.huge, now)) {
            ++promoted;
        }
    }

    // Demotion pass: refill the budget with pages the window never
    // saw.  Address order keeps it deterministic.
    struct Cold
    {
        Addr base;
        bool huge;
        std::uint64_t bytes;
    };
    std::vector<Cold> cold;
    space().pageTable().forEachLeaf([&](Addr base, Pte &, bool huge) {
        if (isPlaced(base) || window_.contains(base)) {
            return;
        }
        cold.push_back(
            {base, huge,
             huge ? kPageSize2M
                  : static_cast<std::uint64_t>(kPageSize4K)});
    });
    std::sort(cold.begin(), cold.end(),
              [](const Cold &a, const Cold &b) {
                  return a.base < b.base;
              });
    const std::uint64_t budget = placementBudgetBytes();
    for (const Cold &c : cold) {
        if (placedBytes_ + c.bytes > budget) {
            break;
        }
        placePage(c.base, c.huge, now);
    }
    window_.clear();
}

} // namespace thermostat
