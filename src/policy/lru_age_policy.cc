#include "policy/lru_age_policy.hh"

#include <algorithm>
#include <vector>

namespace thermostat
{

namespace
{
const std::string kName = "lru-age";
} // namespace

const std::string &
LruAgePolicy::name() const
{
    return kName;
}

void
LruAgePolicy::tick(Ns now)
{
    ++stats_.ticks;
    if (now < nextDecision_) {
        return;
    }
    runPeriod(now);
    lastDecision_ = now;
    nextDecision_ = now + params().decisionPeriod;
}

void
LruAgePolicy::runPeriod(Ns now)
{
    ++stats_.decisionPeriods;
    const ScanStats scan = kstaled().scanAll();
    chargeOverhead(scan.cost);

    const double period_sec =
        static_cast<double>(now - lastDecision_) /
        static_cast<double>(kNsPerSec);

    // Promotion: placed pages whose poison-fault counters show them
    // hot again.  Hottest first; address breaks ties.
    if (period_sec > 0.0) {
        struct Hot
        {
            Addr base;
            bool huge;
            Count count;
        };
        std::vector<Hot> hot;
        for (const Addr base : placedHuge_) {
            const Count count = trap().faultCount(base);
            if (static_cast<double>(count) / period_sec >=
                params().promoteRateThreshold) {
                hot.push_back({base, true, count});
            }
        }
        for (const Addr base : placedBase_) {
            const Count count = trap().faultCount(base);
            if (static_cast<double>(count) / period_sec >=
                params().promoteRateThreshold) {
                hot.push_back({base, false, count});
            }
        }
        std::sort(hot.begin(), hot.end(),
                  [](const Hot &a, const Hot &b) {
                      if (a.count != b.count) {
                          return a.count > b.count;
                      }
                      return a.base < b.base;
                  });
        for (const Hot &h : hot) {
            promotePage(h.base, h.huge, now);
        }
    }
    // Fresh counting window for everything still placed.
    for (const Addr base : placedHuge_) {
        trap().resetCount(base);
    }
    for (const Addr base : placedBase_) {
        trap().resetCount(base);
    }

    // Demotion: longest-idle unplaced pages, up to the budget.
    struct Idle
    {
        Addr base;
        bool huge;
        unsigned idleScans;
        std::uint64_t bytes;
    };
    std::vector<Idle> idle;
    space().pageTable().forEachLeaf([&](Addr base, Pte &, bool huge) {
        if (isPlaced(base)) {
            return;
        }
        const unsigned scans = kstaled().idleState(base).idleScans;
        if (scans < params().idleScansToDemote) {
            return;
        }
        idle.push_back(
            {base, huge, scans,
             huge ? kPageSize2M
                  : static_cast<std::uint64_t>(kPageSize4K)});
    });
    std::sort(idle.begin(), idle.end(),
              [](const Idle &a, const Idle &b) {
                  if (a.idleScans != b.idleScans) {
                      return a.idleScans > b.idleScans;
                  }
                  return a.base < b.base;
              });
    const std::uint64_t budget = placementBudgetBytes();
    for (const Idle &i : idle) {
        if (placedBytes_ + i.bytes > budget) {
            break;
        }
        placePage(i.base, i.huge, now);
    }
}

} // namespace thermostat
