/**
 * @file
 * hotness: access-frequency promotion in the style of Nomad.
 *
 * The policy keeps a per-leaf access-count window fed by the
 * profiling stream.  Each decision period it (i) promotes the placed
 * pages whose windowed rate crossed promoteRateThreshold -- hottest
 * first, at most promoteBatch per period, mirroring Nomad's bounded
 * transactional promotion batches -- and (ii) refills the
 * coldFraction budget with the pages that saw no traffic at all this
 * window.  Migrations ride the shared PageMigrator, so a move the
 * target tier cannot hold leaves the page where it was until the
 * next window.
 */

#ifndef THERMOSTAT_POLICY_HOTNESS_POLICY_HH
#define THERMOSTAT_POLICY_HOTNESS_POLICY_HH

#include "policy/lane_window.hh"
#include "policy/tiering_policy.hh"

namespace thermostat
{

class HotnessPolicy : public TieringPolicy
{
  public:
    explicit HotnessPolicy(const PolicyContext &ctx)
        : TieringPolicy(ctx)
    {
    }

    const std::string &name() const override;
    void tick(Ns now) override;

    bool wantsAccessFeedback() const override { return true; }
    void onProfiledAccess(Addr base, bool huge, bool write,
                          Count weight, std::uint64_t seq) override;

  private:
    void runPeriod(Ns now);

    // shard: lane-local (a LaneWindow, fed from the lanes)
    LaneWindow<Count> window_;
    Ns nextDecision_ = 0;
    Ns lastDecision_ = 0;
};

} // namespace thermostat

#endif // THERMOSTAT_POLICY_HOTNESS_POLICY_HH
