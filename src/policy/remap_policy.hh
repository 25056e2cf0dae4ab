/**
 * @file
 * remap: variable-granularity block remapping (SNIPPETS 1-2; the
 * ChampSim-Ramulator variable_granularity/CAMEO design).
 *
 * The hardware-remapping line of work moves data between memories
 * at whatever granularity the access pattern earns: whole 2MB
 * blocks when an entire block is idle, 64KB runs when only parts
 * of a block cooled, single 4KB pages for the stragglers.  This
 * engine models that choice per 2MB block each decision period:
 *
 *   fully idle block  ->  one 2MB demotion request
 *   lukewarm block    ->  split (splitHuge), so next period its
 *                         4KB leaves profile individually
 *   idle 4KB leaves   ->  coalesced into contiguous runs of up to
 *                         16 pages (64KB granularity: one queue
 *                         slot, 16 migrations at service time);
 *                         loners go as plain 4KB requests
 *
 * All traffic rides the bounded MigrationQueue, and the engine
 * throttles on queuePressure() -- the CAMEO-style congestion
 * feedback: when the queue reads busy the rest of the round is
 * skipped rather than queued blind.
 */

#ifndef THERMOSTAT_POLICY_REMAP_POLICY_HH
#define THERMOSTAT_POLICY_REMAP_POLICY_HH

#include "policy/lane_window.hh"
#include "policy/tiering_policy.hh"

namespace thermostat
{

class RemapPolicy : public TieringPolicy
{
  public:
    explicit RemapPolicy(const PolicyContext &ctx);

    const std::string &name() const override;
    void tick(Ns now) override;

    bool wantsAccessFeedback() const override { return true; }
    void onProfiledAccess(Addr base, bool huge, bool write,
                          Count weight, std::uint64_t seq) override;

    void registerMetrics(MetricRegistry &registry) override;

  private:
    /** Pages per 64KB-granularity run request. */
    static constexpr unsigned kRunPages = 16;

    void runPeriod(Ns now);

    /** Per-leaf window counts. */
    LaneWindow<Count> leafWindow_; // shard: lane-local
    /** Per-2MB-block counts; a block is in its leaves' lane. */
    LaneWindow<Count> blockWindow_; // shard: lane-local
    Ns nextDecision_ = 0;
    Ns lastDecision_ = 0;
    Count throttleSkips_ = 0; //!< rounds cut short by congestion
    Count splits_ = 0;        //!< lukewarm blocks split
    Count demotions2M_ = 0;   //!< whole-block demotion requests
    Count demotionRuns_ = 0;  //!< multi-page (64KB) run requests
    Count demotions4K_ = 0;   //!< single-leaf demotion requests
};

} // namespace thermostat

#endif // THERMOSTAT_POLICY_REMAP_POLICY_HH
