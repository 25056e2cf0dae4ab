#include "policy/thermostat_policy.hh"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/access_estimator.hh"
#include "core/corrector.hh"
#include "obs/metrics.hh"

namespace thermostat
{

namespace
{
const std::string kName = "thermostat";
} // namespace

ThermostatPolicy::ThermostatPolicy(const PolicyContext &ctx)
    : TieringPolicy(ctx),
      // The seed derivation must stay in lockstep with the
      // pre-policy driver: goldens pin the byte-identical output.
      // rng: thermostat sampling-engine stream
      rng_(ctx.seed ^ 0x7e47a11ULL),
      sampler_(ctx.space, ctx.trap, ctx.kstaled, rng_.fork()),
      markingQuantum_(ctx.markingQuantum)
{
}

const std::string &
ThermostatPolicy::name() const
{
    return kName;
}

Ns
ThermostatPolicy::stageLength() const
{
    return std::max<Ns>(1, cgroup().params().samplingPeriod / 3);
}

double
ThermostatPolicy::targetRate() const
{
    const ThermostatParams &params = cgroup().params();
    return slowdownToRateBudget(params.tolerableSlowdownPct,
                                params.slowMemLatency);
}

// Charges kstaled's scan cost and BadgerTrap's maintenance time
// accrued since the last call.  The latter holds every poison and
// unpoison the engine issues, profiling and movePage() alike, so its
// movePage() calls pass chargeTrap = false.
void
ThermostatPolicy::accrueOverhead()
{
    const Ns kstaled_cost = kstaled().totalCost();
    const Ns trap_cost = trap().stats().maintenanceTime;
    chargeOverhead((kstaled_cost - seenKstaledCost_) +
                   (trap_cost - seenTrapMaintenance_));
    seenKstaledCost_ = kstaled_cost;
    seenTrapMaintenance_ = trap_cost;
}

void
ThermostatPolicy::tick(Ns now)
{
    ++stats_.ticks;
    if (tracer()) {
        tracer()->setSimTime(now);
    }
    while (now >= nextStageTime_) {
        switch (nextStage_) {
          case Stage::Split:
            runSplitStage(now);
            break;
          case Stage::Poison:
            runPoisonStage(now);
            break;
          case Stage::Classify:
            runClassifyStage(now);
            break;
        }
    }
}

void
ThermostatPolicy::runSplitStage(Ns now)
{
    const ThermostatParams &params = cgroup().params();
    splitBases_ =
        sampler_.selectAndSplit(params.sampleFraction, placedHuge_);
    profilingRanges_.clear();
    profilingRanges_.insert(splitBases_.begin(), splitBases_.end());
    sampledBase_ = sampler_.selectBasePages(params.sampleFraction,
                                            placedBase_, splitBases_);
    if (tracer()) {
        for (const Addr base : splitBases_) {
            tracer()->record(EventKind::PageSampled, now, base, true);
            tracer()->record(EventKind::PageSplit, now, base, true);
        }
        for (const Addr base : sampledBase_) {
            tracer()->record(EventKind::PageSampled, now, base,
                             false);
        }
    }
    accrueOverhead();
    nextStage_ = Stage::Poison;
    nextStageTime_ = now + stageLength();
}

void
ThermostatPolicy::runPoisonStage(Ns now)
{
    const ThermostatParams &params = cgroup().params();
    profiled_.clear();
    profiled_.reserve(splitBases_.size() + sampledBase_.size());
    for (const Addr base : splitBases_) {
        profiled_.push_back(
            sampler_.poisonSubpages(base, params.poisonBudget));
    }
    for (const Addr base : sampledBase_) {
        // Only pages with a non-zero rate are worth poisoning; the
        // Accessed bit from stage 1 tells us which.  Unaccessed
        // pages keep a zero estimate for free.
        SampledPage page;
        if (kstaled().testAndClearAccessed(base)) {
            page = sampler_.poisonBasePage(base);
        } else {
            page.base = base;
            page.huge = false;
            page.accessedSubpages = 0;
        }
        profiled_.push_back(page);
    }
    accrueOverhead();
    poisonStart_ = now;
    nextStage_ = Stage::Classify;
    nextStageTime_ = now + 2 * stageLength();
}

void
ThermostatPolicy::runClassifyStage(Ns now)
{
    const Ns window = now > poisonStart_ ? now - poisonStart_ : 1;

    // Harvest counts and release the profiling poison.
    std::vector<PageRate> rates;
    rates.reserve(profiled_.size());
    std::uint64_t sampled_bytes = 0;
    for (const SampledPage &page : profiled_) {
        Count faults = 0;
        for (const Addr sub : page.poisoned) {
            faults += trap().faultCount(sub);
            trap().unpoison(sub);
        }
        PageRate rate;
        rate.base = page.base;
        rate.bytes = page.huge ? kPageSize2M : kPageSize4K;
        const unsigned accessed =
            page.huge ? debiasAccessedCount(page.accessedSubpages,
                                            kSubpagesPerHuge,
                                            markingQuantum_)
                      : page.accessedSubpages;
        rate.rate = estimateAccessRate(
            faults, static_cast<unsigned>(page.poisoned.size()),
            accessed, window);
        if (page.huge && page.poisoned.empty()) {
            // No subpage had a non-zero rate: genuinely idle.
            rate.rate = 0.0;
        }
        rates.push_back(rate);
        sampled_bytes += rate.bytes;
    }

    // Budget for this period's sample: f * x / (100 ts), f computed
    // as the sampled fraction of the resident footprint, applied to
    // the budget headroom left after the cold set's measured rate
    // (the corrector's view from the previous period); placing into
    // spent budget would only be clawed back next period.
    const std::uint64_t rss = space().rssBytes();
    const double f =
        rss == 0 ? 0.0
                 : static_cast<double>(sampled_bytes) /
                       static_cast<double>(rss);
    const double headroom =
        std::max(0.0, targetRate() - slowRateSeries_.lastValue());
    profiledByBase_.clear();
    for (const SampledPage &page : profiled_) {
        profiledByBase_.emplace(page.base, &page);
    }
    const Classification classes =
        classifyPages(std::move(rates), f * headroom);

    applyClassification(classes, now);
    profiledByBase_.clear();
    runCorrection(now);
    accrueOverhead();

    profiled_.clear();
    splitBases_.clear();
    sampledBase_.clear();
    profilingRanges_.clear();
    ++stats_.decisionPeriods;
    lastClassify_ = now;
    nextStage_ = Stage::Split;
    // One tick past `now` so a single tick() call cannot loop
    // through more than one full period.
    nextStageTime_ = now + 1;
}

void
ThermostatPolicy::applyClassification(const Classification &classes,
                                      Ns now)
{
    for (const PageRate &page : classes.cold) {
        const bool huge = page.bytes == kPageSize2M;
        if (tracer()) {
            tracer()->record(EventKind::ClassifiedCold, now, page.base,
                             huge);
        }
        if (huge) {
            const bool collapsed = space().collapseHuge(page.base);
            if (!collapsed) {
                ++engineStats_.collapseFailures;
            }
            if (tracer()) {
                tracer()->record(collapsed ? EventKind::PageCollapsed
                                 : EventKind::CollapseFailed,
                                 now, page.base, true);
            }
            if (!collapsed) {
                continue;
            }
        }
        // The cold page stays poisoned: its fault counts feed the
        // mis-classification corrector.
        if (!movePage(page.base, huge, Tier::Slow, now, false)) {
            continue;
        }
        ++(huge ? engineStats_.coldHugePlaced
                : engineStats_.coldBasePlaced);
        ++stats_.demotionsOrdered;
    }
    for (const PageRate &page : classes.hot) {
        if (tracer()) {
            tracer()->record(EventKind::ClassifiedHot, now, page.base,
                             page.bytes == kPageSize2M);
        }
        if (page.bytes != kPageSize2M) {
            continue;
        }
        const auto it = profiledByBase_.find(page.base);
        if (cgroup().params().spreadHugePages &&
            it != profiledByBase_.end() &&
            trySpreadHotPage(*it->second, now)) {
            continue;
        }
        if (space().collapseHuge(page.base)) {
            if (tracer()) {
                tracer()->record(EventKind::PageCollapsed, now,
                                 page.base, true);
            }
        } else {
            ++engineStats_.collapseFailures;
            if (tracer()) {
                tracer()->record(EventKind::CollapseFailed, now,
                                 page.base, true);
            }
        }
    }
}

bool
ThermostatPolicy::trySpreadHotPage(const SampledPage &page, Ns now)
{
    // Sec 6 extension: a hot page whose hot footprint is confined to
    // a few subpages stays split; its never-accessed subpages move
    // to slow memory individually and keep being monitored.
    const ThermostatParams &params = cgroup().params();
    const unsigned accessed =
        debiasAccessedCount(page.accessedSubpages, kSubpagesPerHuge,
                            markingQuantum_);
    if (accessed == 0 || accessed > params.spreadMaxHotSubpages) {
        return false;
    }
    std::unordered_set<Addr> hot_subpages(page.accessed.begin(),
                                          page.accessed.end());
    unsigned demoted = 0;
    for (unsigned i = 0; i < kSubpagesPerHuge; ++i) {
        const Addr sub = page.base + i * kPageSize4K;
        if (hot_subpages.find(sub) != hot_subpages.end()) {
            continue;
        }
        if (movePage(sub, false, Tier::Slow, now, false)) {
            ++demoted;
        }
    }
    if (demoted == 0) {
        return false;
    }
    ++engineStats_.pagesSpread;
    engineStats_.spreadSubpagesDemoted += demoted;
    if (tracer()) {
        tracer()->record(EventKind::PageSpread, now, page.base, true,
                         demoted);
    }
    return true;
}

void
ThermostatPolicy::runCorrection(Ns now)
{
    if (!cgroup().params().correctionEnabled) {
        return;
    }
    const Ns window =
        lastClassify_ == 0 ? cgroup().params().samplingPeriod
                           : now - lastClassify_;
    if (window == 0 || (placedHuge_.empty() && placedBase_.empty())) {
        slowRateSeries_.append(now, 0.0);
        return;
    }

    std::vector<PageRate> cold_rates;
    cold_rates.reserve(placedHuge_.size() + placedBase_.size());
    const double per_sec = static_cast<double>(kNsPerSec) /
                           static_cast<double>(window);
    for (const Addr base : placedHuge_) {
        cold_rates.push_back(
            {base, kPageSize2M,
             static_cast<double>(trap().faultCount(base)) * per_sec});
    }
    for (const Addr base : placedBase_) {
        cold_rates.push_back(
            {base, kPageSize4K,
             static_cast<double>(trap().faultCount(base)) * per_sec});
    }

    const CorrectionPlan plan =
        planCorrection(std::move(cold_rates), targetRate());
    slowRateSeries_.append(now, plan.measuredRate);

    for (const PageRate &page : plan.promote) {
        if (!movePage(page.base, page.bytes == kPageSize2M,
                      Tier::Fast, now, false)) {
            continue;
        }
        ++engineStats_.promotions;
        ++stats_.promotionsOrdered;
        if (tracer()) {
            tracer()->record(EventKind::Corrected, now, page.base,
                             page.bytes == kPageSize2M,
                             static_cast<std::uint64_t>(page.rate));
        }
    }

    // Fresh window for the surviving cold set.
    for (const Addr base : placedHuge_) {
        trap().resetCount(base);
    }
    for (const Addr base : placedBase_) {
        trap().resetCount(base);
    }
}

void
ThermostatPolicy::registerMetrics(MetricRegistry &registry)
{
    // The engine's metrics keep their historical "engine" prefix so
    // existing dashboards and tests stay valid; the generic policy
    // counters appear under policy/thermostat like every engine.
    const auto count = [&registry](const char *name,
                                   const Count *value) {
        registry.addCallback(name, [value] {
            return static_cast<double>(*value);
        });
    };
    count("engine.periods", &stats_.decisionPeriods);
    count("engine.cold_huge_placed", &engineStats_.coldHugePlaced);
    count("engine.cold_base_placed", &engineStats_.coldBasePlaced);
    count("engine.pages_spread", &engineStats_.pagesSpread);
    count("engine.spread_subpages_demoted",
          &engineStats_.spreadSubpagesDemoted);
    count("engine.promotions", &engineStats_.promotions);
    count("engine.collapse_failures", &engineStats_.collapseFailures);
    count("engine.migration_failures", &stats_.placementFailures);
    count("engine.overhead_ns", &stats_.overheadTime);
    registry.addCallback("engine.cold_bytes", [this] {
        return static_cast<double>(coldBytes());
    });
    registry.addCallback("engine.target_rate",
                         [this] { return targetRate(); });
    registry.addCallback("engine.measured_slow_rate", [this] {
        return slowRateSeries_.lastValue();
    });
    TieringPolicy::registerMetrics(registry);
}

} // namespace thermostat
