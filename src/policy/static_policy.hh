/**
 * @file
 * The paper's strawman: measure once, pin the coldest fraction in
 * slow memory, never migrate again.
 *
 * During the first decision period the policy listens to the
 * profiling stream and counts accesses per leaf page.  At the first
 * tick past that window it sorts every mapped leaf by observed rate
 * (coldest first, address as the tie-break), demotes pages up to the
 * coldFraction budget, and then goes quiet: no promotions, no
 * re-evaluation.  This is the naive static placement whose slowdown
 * Figure 1 shows to be unacceptable -- any page that turns hot later
 * keeps paying the slow-tier latency forever.
 */

#ifndef THERMOSTAT_POLICY_STATIC_POLICY_HH
#define THERMOSTAT_POLICY_STATIC_POLICY_HH

#include "policy/lane_window.hh"
#include "policy/tiering_policy.hh"

namespace thermostat
{

class StaticColdestPolicy : public TieringPolicy
{
  public:
    explicit StaticColdestPolicy(const PolicyContext &ctx)
        : TieringPolicy(ctx)
    {
    }

    const std::string &name() const override;
    void tick(Ns now) override;

    bool wantsAccessFeedback() const override { return !placed_; }
    void onProfiledAccess(Addr base, bool huge, bool write,
                          Count weight, std::uint64_t seq) override;

  private:
    void placeOnce(Ns now);

    // shard: lane-local (a LaneWindow, fed from the lanes)
    LaneWindow<Count> observed_;
    bool placed_ = false;
};

} // namespace thermostat

#endif // THERMOSTAT_POLICY_STATIC_POLICY_HH
