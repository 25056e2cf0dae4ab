#include "policy/static_policy.hh"

#include <algorithm>
#include <vector>

namespace thermostat
{

namespace
{
const std::string kName = "static";
} // namespace

const std::string &
StaticColdestPolicy::name() const
{
    return kName;
}

void
StaticColdestPolicy::onProfiledAccess(Addr base, bool huge,
                                      bool write, Count weight,
                                      std::uint64_t seq)
{
    (void)huge;
    (void)write;
    (void)seq;
    observed_[base] += weight;
}

void
StaticColdestPolicy::tick(Ns now)
{
    ++stats_.ticks;
    if (!placed_ && now >= params().decisionPeriod) {
        placeOnce(now);
        placed_ = true;
        observed_.clear();
    }
}

void
StaticColdestPolicy::placeOnce(Ns now)
{
    ++stats_.decisionPeriods;
    struct Candidate
    {
        Addr base;
        bool huge;
        Count count;
        std::uint64_t bytes;
    };
    std::vector<Candidate> candidates;
    space().pageTable().forEachLeaf([&](Addr base, Pte &, bool huge) {
        const Count *observed = observed_.find(base);
        const Count count = observed == nullptr ? 0 : *observed;
        candidates.push_back(
            {base, huge, count,
             huge ? kPageSize2M
                  : static_cast<std::uint64_t>(kPageSize4K)});
    });
    // Coldest first; address breaks ties so slot order (hash-map
    // iteration) never leaks into placement.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.count != b.count) {
                      return a.count < b.count;
                  }
                  return a.base < b.base;
              });
    const std::uint64_t budget = placementBudgetBytes();
    for (const Candidate &c : candidates) {
        if (placedBytes_ + c.bytes > budget) {
            break;
        }
        placePage(c.base, c.huge, now);
    }
}

} // namespace thermostat
