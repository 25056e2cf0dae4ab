/**
 * @file
 * nomad: transactional tiering with non-exclusive residency
 * (PAPERS.md; the Nomad paper's page-management design).
 *
 * Where hotness calls the migrator synchronously, nomad rides the
 * bounded MigrationQueue and the TransactionEngine: every order is
 * a transactional move -- shadow copy this epoch, dirty-revalidate
 * and commit-or-abort the next -- so a page the workload keeps
 * writing simply refuses to demote (the abort bills wear, not a
 * stall), which is Nomad's core win on write-heavy workloads.
 *
 * Read-mostly pages go further: a promotion whose window saw zero
 * writes retains the slow-tier copy as a read replica
 * (non-exclusive residency).  If the page later cools, the demotion
 * spends the replica instead of a shadow copy -- the page "returns"
 * to slow memory for free.  Any write drops the replica.
 *
 * Access feedback arrives from the machine lanes (see
 * TieringPolicy::onProfiledAccess): the read/write window is a
 * LaneWindow, and the one order-sensitive effect, markDirty() on a
 * page in the transaction ledger, is logged per lane with the
 * reference's sequence number and applied in draw order by
 * joinAccessFeedback().  Nothing changes the ledger while the lanes
 * run, so a write to a page outside it needs no log entry.
 *
 * Congestion feedback: the engine stops ordering work for the
 * period when the queue reads busy (queuePressure() at or above
 * queueBusyThreshold), counting the skips it was forced into.
 */

#ifndef THERMOSTAT_POLICY_NOMAD_POLICY_HH
#define THERMOSTAT_POLICY_NOMAD_POLICY_HH

#include <array>
#include <vector>

#include "policy/lane_window.hh"
#include "policy/tiering_policy.hh"

namespace thermostat
{

class NomadPolicy : public TieringPolicy
{
  public:
    explicit NomadPolicy(const PolicyContext &ctx);

    const std::string &name() const override;
    void tick(Ns now) override;

    bool wantsAccessFeedback() const override { return true; }
    void onProfiledAccess(Addr base, bool huge, bool write,
                          Count weight, std::uint64_t seq) override;
    void joinAccessFeedback() override;

    void registerMetrics(MetricRegistry &registry) override;

  private:
    struct WindowEntry
    {
        Count reads = 0;
        Count writes = 0;
    };

    void runPeriod(Ns now);

    /** A write to a page in the ledger, for joinAccessFeedback(). */
    struct DirtyWrite
    {
        std::uint64_t seq;
        Addr base;
    };

    /** One lane's dirty writes of an epoch, in seq order. */
    struct alignas(kCacheLineBytes) DirtyLog
    {
        std::vector<DirtyWrite> writes; // shard: lane-local
    };

    // shard: lane-local (a LaneWindow, fed from the lanes)
    LaneWindow<WindowEntry> window_;
    std::array<DirtyLog, kMachineLanes> dirtyLogs_; // shard: lane-local
    Ns nextDecision_ = 0;
    Ns lastDecision_ = 0;
    Ns nowHint_ = 0; //!< tick time, for feedback-path events
    Count throttleSkips_ = 0; //!< rounds cut short by congestion
};

} // namespace thermostat

#endif // THERMOSTAT_POLICY_NOMAD_POLICY_HH
