/**
 * @file
 * The Thermostat engine (paper Sec 3), the `thermostat` policy.
 *
 * A periodic daemon driving the three-stage sampling pipeline of
 * Figure 4 over each sampling period:
 *
 *   Stage 1 (split):    randomly select ~5% of huge pages, split
 *                       them, clear subpage Accessed bits.
 *   Stage 2 (poison):   read Accessed bits, poison <=50 accessed
 *                       subpages per sampled page.
 *   Stage 3 (classify): estimate per-page rates by spatial
 *                       extrapolation, place the coldest sampled
 *                       pages in slow memory within the f-scaled
 *                       rate budget, and run the mis-classification
 *                       corrector over the resident cold set.
 *
 * Cold pages remain poisoned while in slow memory so their access
 * counts keep accumulating at low overhead; the corrector promotes
 * the hottest of them whenever the aggregate measured rate exceeds
 * the budget (Sec 3.5), which also adapts to working-set changes.
 *
 * The algorithm pieces (sampler, estimator, classifier, corrector)
 * live in core/; this class sequences them and moves pages through
 * TieringPolicy::movePage(), whose placed sets are the cold set.
 */

#ifndef THERMOSTAT_POLICY_THERMOSTAT_POLICY_HH
#define THERMOSTAT_POLICY_THERMOSTAT_POLICY_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/classifier.hh"
#include "core/sampler.hh"
#include "policy/tiering_policy.hh"

namespace thermostat
{

/**
 * Engine-specific counters.  Periods, migration failures and the
 * overhead are the generic PolicyStats decisionPeriods,
 * placementFailures and overheadTime; coldHugePlaced +
 * coldBasePlaced is demotionsOrdered and promotions is
 * promotionsOrdered.
 */
struct EngineStats
{
    Count coldHugePlaced = 0;
    Count coldBasePlaced = 0;
    Count pagesSpread = 0;     //!< Sec 6 extension: split-and-spread
    Count spreadSubpagesDemoted = 0;
    Count promotions = 0;
    Count collapseFailures = 0;
};

/**
 * The application-transparent page management engine.
 */
class ThermostatPolicy : public TieringPolicy
{
  public:
    explicit ThermostatPolicy(const PolicyContext &ctx);

    const std::string &name() const override;

    /**
     * Advance the engine to @p now; runs any pipeline stage whose
     * time has come.  Call at least once per stage length
     * (samplingPeriod / 3).
     */
    void tick(Ns now) override;

    /**
     * True while the 2MB range at @p base is split for this
     * period's profiling (between the split and classify stages).
     * Khugepaged must not collapse such ranges: before the poison
     * stage runs there is no poisoned PTE to warn it off, and a
     * premature collapse would turn the sampler's subpage poison
     * into a whole-huge-page poison in fast memory.
     */
    bool
    isProfilingRange(Addr base) const override
    {
        return profilingRanges_.find(base) != profilingRanges_.end();
    }

    /**
     * Measured slow-memory access rate at each classification point
     * (accesses/sec over the preceding period); Figure 3's series.
     */
    const TimeSeries *
    slowRateSeries() const override
    {
        return &slowRateSeries_;
    }

    /**
     * Expose the engine counters under "engine." (the historical
     * prefix), then the generic ones under policy/thermostat.
     */
    void registerMetrics(MetricRegistry &registry) override;

    /** Aggregate slow-memory access-rate budget (accesses/sec). */
    double targetRate() const;

    const EngineStats &engineStats() const { return engineStats_; }

  private:
    enum class Stage { Split, Poison, Classify };

    Ns stageLength() const;
    void runSplitStage(Ns now);
    void runPoisonStage(Ns now);
    void runClassifyStage(Ns now);
    void applyClassification(const Classification &classes, Ns now);
    bool trySpreadHotPage(const SampledPage &page, Ns now);
    void runCorrection(Ns now);
    void accrueOverhead();

    Rng rng_;
    Sampler sampler_;
    const double markingQuantum_;

    Stage nextStage_ = Stage::Split;
    Ns nextStageTime_ = 0;
    Ns poisonStart_ = 0;
    Ns lastClassify_ = 0;
    std::vector<Addr> splitBases_;
    std::vector<Addr> sampledBase_;
    std::unordered_set<Addr> profilingRanges_;
    std::vector<SampledPage> profiled_;
    std::unordered_map<Addr, const SampledPage *> profiledByBase_;

    TimeSeries slowRateSeries_{"slow_mem_access_rate"};
    EngineStats engineStats_;
    Ns seenKstaledCost_ = 0;
    Ns seenTrapMaintenance_ = 0;
};

} // namespace thermostat

#endif // THERMOSTAT_POLICY_THERMOSTAT_POLICY_HH
