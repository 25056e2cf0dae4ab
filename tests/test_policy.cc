/**
 * @file
 * Tiering-policy subsystem tests: factory round-trips, per-policy
 * determinism, budget adherence of the comparison engines, access
 * feedback fed from the machine lanes, and the sanity ordering the
 * comparison harness banks on -- at an equal
 * cold fraction the oracle's slowdown lower-bounds Thermostat's,
 * which beats naive static placement on a phase-shifting workload.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "harness.hh"
#include "policy/policy_factory.hh"
#include "workload/workload.hh"

namespace thermostat
{
namespace
{

using test::halfColdWorkload;
using test::tinySimConfig;
using test::writeHeavyWorkload;

// ---------------------------------------------------------------
// Factory
// ---------------------------------------------------------------

TEST(PolicyFactory, RegistersTheDocumentedEngines)
{
    const std::vector<std::string> want = {
        "thermostat", "static", "lru-age", "hotness",
        "oracle",     "nomad",  "remap"};
    EXPECT_EQ(PolicyFactory::names(), want);
    for (const std::string &name : want) {
        EXPECT_TRUE(PolicyFactory::known(name)) << name;
    }
    for (const PolicyListing &listing : PolicyFactory::listings()) {
        EXPECT_TRUE(PolicyFactory::known(listing.name));
        EXPECT_FALSE(listing.description.empty()) << listing.name;
    }
}

TEST(PolicyFactory, RoundTripsEveryRegisteredName)
{
    for (const std::string &name : PolicyFactory::names()) {
        SCOPED_TRACE(name);
        SimConfig config = tinySimConfig();
        config.policy = name;
        Simulation sim(halfColdWorkload(), config);
        EXPECT_EQ(sim.policy().name(), name);
        EXPECT_EQ(TieringPolicy::metricPrefix(name),
                  "policy/" + name);
    }
}

TEST(PolicyFactory, UnknownNameIsRejected)
{
    EXPECT_FALSE(PolicyFactory::known("fifo"));
    EXPECT_FALSE(PolicyFactory::known(""));

    SimConfig config = tinySimConfig();
    Simulation sim(halfColdWorkload(), config);
    const PolicyContext ctx{sim.cgroup(),
                            sim.machine().space(),
                            sim.machine().trap(),
                            sim.kstaled(),
                            sim.migrator(),
                            config.policyParams,
                            &sim.workload(),
                            config.seed};
    EXPECT_EQ(PolicyFactory::make("fifo", ctx), nullptr);
}

// ---------------------------------------------------------------
// Determinism and budget adherence
// ---------------------------------------------------------------

SimResult
runHalfCold(const std::string &policy, std::uint64_t seed)
{
    SimConfig config = tinySimConfig(seed);
    config.duration = 60 * kNsPerSec;
    config.policy = policy;
    config.policyParams.coldFraction = 0.4;
    Simulation sim(halfColdWorkload(), config);
    return sim.run();
}

TEST(PolicyDeterminism, TwoSeededRunsAreIdentical)
{
    for (const std::string &name : PolicyFactory::names()) {
        SCOPED_TRACE(name);
        const SimResult a = runHalfCold(name, 11);
        const SimResult b = runHalfCold(name, 11);
        EXPECT_EQ(a.slowdown, b.slowdown);
        EXPECT_EQ(a.finalColdFraction, b.finalColdFraction);
        EXPECT_EQ(a.avgColdFraction, b.avgColdFraction);
        EXPECT_EQ(a.monitorOverheadFraction,
                  b.monitorOverheadFraction);
        EXPECT_EQ(a.policy.ticks, b.policy.ticks);
        EXPECT_EQ(a.policy.decisionPeriods, b.policy.decisionPeriods);
        EXPECT_EQ(a.policy.demotionsOrdered,
                  b.policy.demotionsOrdered);
        EXPECT_EQ(a.policy.promotionsOrdered,
                  b.policy.promotionsOrdered);
        EXPECT_EQ(a.policy.placementFailures,
                  b.policy.placementFailures);
    }
}

TEST(PolicyBehaviour, EveryEngineRunsAuditClean)
{
    for (const std::string &name : PolicyFactory::names()) {
        SCOPED_TRACE(name);
        const SimResult r = runHalfCold(name, 3);
        EXPECT_EQ(r.auditViolations, 0u);
        EXPECT_EQ(r.policyName, name);
        EXPECT_GT(r.policy.ticks, 0u);
    }
}

TEST(PolicyBehaviour, ComparisonEnginesRespectTheColdBudget)
{
    for (const std::string &name : PolicyFactory::names()) {
        if (name == "thermostat") {
            continue; // its cold fraction is an output, not a knob
        }
        SCOPED_TRACE(name);
        const SimResult r = runHalfCold(name, 3);
        // One 2MB leaf of slack: placement stops when the next leaf
        // would overshoot the budget, so the fraction can only round
        // down, but growth after placement can nudge it up slightly.
        EXPECT_LE(r.finalColdFraction, 0.4 + 0.02);
        EXPECT_GT(r.policy.demotionsOrdered, 0u);
    }
}

TEST(PolicyBehaviour, ChargedOverheadEqualsReportedOverhead)
{
    // Each epoch's flight row carries what the driver charged the
    // application (takeOverhead()); the policy's overhead_ns metric
    // is what it reports.  Every cost must land in both exactly
    // once.  nomad and remap are left out: their rows also carry
    // the migration queue's cost, which the queue accounts.
    for (const char *name :
         {"thermostat", "static", "lru-age", "hotness", "oracle"}) {
        SCOPED_TRACE(name);
        SimConfig config = tinySimConfig(5);
        config.duration = 90 * kNsPerSec;
        config.warmup = 0;
        config.policy = name;
        config.policyParams.coldFraction = 0.4;
        Simulation sim(halfColdWorkload(), config);
        const SimResult r = sim.run();
        ASSERT_GT(r.policy.demotionsOrdered, 0u);

        const EpochFlightRecorder &flight = sim.flightRecorder();
        ASSERT_EQ(flight.droppedRows(), 0u);
        const int column = flight.columnIndex("overhead_ns");
        ASSERT_GE(column, 0);
        double charged = 0.0;
        for (const EpochRow &row : flight.rows()) {
            charged += row.values[static_cast<std::size_t>(column)];
        }
        const std::string metric =
            TieringPolicy::metricPrefix(name) + ".overhead_ns";
        double reported = -1.0;
        for (const MetricSample &sample : sim.metrics().snapshot()) {
            if (sample.name == metric) {
                reported = sample.value;
            }
        }
        EXPECT_GT(reported, 0.0);
        EXPECT_EQ(charged, reported);
    }
}

TEST(PolicyBehaviour, BaselineRunPlacesNothing)
{
    for (const std::string &name : PolicyFactory::names()) {
        SCOPED_TRACE(name);
        SimConfig config = tinySimConfig(9);
        config.duration = 30 * kNsPerSec;
        config.policy = name;
        config.thermostatEnabled = false;
        Simulation sim(halfColdWorkload(), config);
        const SimResult r = sim.run();
        EXPECT_EQ(r.finalColdFraction, 0.0);
        EXPECT_EQ(r.policy.demotionsOrdered, 0u);
    }
}

// ---------------------------------------------------------------
// Access feedback from the lanes
// ---------------------------------------------------------------

/** One access-feedback call. */
struct Feedback
{
    Addr base;
    bool huge;
    bool write;
    Count weight;
};

/** Every mapped leaf of @p sim: its base and whether it is huge. */
std::vector<std::pair<Addr, bool>>
mappedLeaves(Simulation &sim)
{
    std::vector<std::pair<Addr, bool>> leaves;
    sim.machine().space().pageTable().forEachLeaf(
        [&](Addr base, Pte &, bool huge) {
            leaves.push_back({base, huge});
        });
    return leaves;
}

/**
 * @p count feedback calls over @p sim's leaves, in a seeded draw
 * order that follows neither address nor lane order.  Half the calls
 * land on the first eighth of the leaves, with weights that make
 * those pages hot for the promotion passes, and many leaves go
 * unseen for the demotion passes.
 */
std::vector<Feedback>
feedbackDraws(Simulation &sim, std::size_t count, std::uint64_t seed)
{
    const std::vector<std::pair<Addr, bool>> leaves = mappedLeaves(sim);
    Rng rng(seed); // rng: test feedback draws
    std::vector<Feedback> draws;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t span = rng.nextBounded(2) == 0
                                     ? leaves.size() / 8 + 1
                                     : leaves.size();
        const auto &[base, huge] = leaves[rng.nextBounded(span)];
        draws.push_back({base, huge, rng.nextBounded(4) == 0,
                         1 + rng.nextBounded(100)});
    }
    return draws;
}

/** Feed @p draws from one thread in draw order, then join. */
void
feedInDrawOrder(TieringPolicy &policy, const std::vector<Feedback> &draws)
{
    for (std::size_t i = 0; i < draws.size(); ++i) {
        const Feedback &f = draws[i];
        policy.onProfiledAccess(f.base, f.huge, f.write, f.weight, i);
    }
    policy.joinAccessFeedback();
}

/**
 * Feed @p draws as an epoch's lanes do: one pool job per lane, each
 * making its own pages' calls in draw order while the others make
 * theirs, then join.
 */
void
feedPerLane(TieringPolicy &policy, const std::vector<Feedback> &draws,
            ThreadPool &pool)
{
    for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
        pool.submit([&policy, &draws, lane] {
            for (std::size_t i = 0; i < draws.size(); ++i) {
                const Feedback &f = draws[i];
                if (laneOf(f.base) == lane) {
                    policy.onProfiledAccess(f.base, f.huge, f.write,
                                            f.weight, i);
                }
            }
        });
    }
    pool.wait();
    policy.joinAccessFeedback();
}

/** Every lifecycle event of @p sim's ring, as comparable text. */
std::string
lifecycleEvents(Simulation &sim)
{
    std::string out;
    for (const TraceEvent &ev : sim.tracer().events()) {
        if (ev.kind != EventKind::Phase) {
            out += std::to_string(static_cast<int>(ev.kind)) + " " +
                   std::to_string(ev.time) + " " +
                   std::to_string(ev.addr) + " " +
                   std::to_string(ev.value) + "\n";
        }
    }
    return out;
}

/** A run's decisions: its flight rows, metrics and events. */
std::string
decisions(Simulation &sim)
{
    return sim.flightRecorder().toCsv() + sim.metricsJson() +
           lifecycleEvents(sim);
}

/**
 * Step @p sim through a 30 s run, feeding it extra access feedback
 * before the first decision round (at 10 s) and between the first
 * and the second, so both the demotion and the promotion passes see
 * it.  @p feed null feeds nothing.
 */
std::string
runWithExtraFeedback(const char *policy,
                     void (*feed)(TieringPolicy &,
                                  const std::vector<Feedback> &,
                                  ThreadPool &),
                     ThreadPool &pool)
{
    SimConfig config = tinySimConfig(21);
    config.duration = 30 * kNsPerSec;
    config.policy = policy;
    config.policyParams.coldFraction = 0.4;
    config.policyParams.promoteRateThreshold = 8000.0;
    Simulation sim(writeHeavyWorkload(), config);
    sim.startRun();
    for (std::uint64_t epoch = 1; !sim.runDone(); ++epoch) {
        sim.stepEpoch();
        if (feed != nullptr && (epoch == 6 || epoch == 13)) {
            feed(sim.policy(), feedbackDraws(sim, 20000, epoch), pool);
        }
    }
    sim.finishRun();
    return decisions(sim);
}

TEST(LaneFeedback, LaneFedWindowsDecideAsOneSerialWindow)
{
    // The same feedback, fed once from one thread in draw order and
    // once from eight concurrent lane jobs in lane order, must give
    // the same placements, promotions and events; feeding nothing
    // must not, so the extra feedback reaches the decisions.
    ThreadPool pool(4);
    const auto serial = [](TieringPolicy &policy,
                           const std::vector<Feedback> &draws,
                           ThreadPool &) { feedInDrawOrder(policy, draws); };
    for (const char *name : {"hotness", "remap", "static", "nomad"}) {
        SCOPED_TRACE(name);
        const std::string drawn = runWithExtraFeedback(name, serial, pool);
        const std::string laned =
            runWithExtraFeedback(name, feedPerLane, pool);
        EXPECT_EQ(drawn, laned);
        EXPECT_NE(drawn, runWithExtraFeedback(name, nullptr, pool));
    }
}

TEST(LaneFeedback, NomadDirtyLogDropsReplicasInDrawOrder)
{
    // Writes reach the lanes in lane order, but replica drops free
    // shadow frames and emit events, so they must happen in draw
    // order: the order of each replica's first write.
    SimConfig config = tinySimConfig(21);
    config.duration = 60 * kNsPerSec;
    config.policy = "nomad";
    config.policyParams.coldFraction = 0.4;
    Simulation sim(writeHeavyWorkload(), config);
    sim.startRun();
    std::vector<std::pair<Addr, bool>> replicas;
    while (!sim.runDone() && replicas.size() < 4) {
        sim.stepEpoch();
        replicas.clear();
        for (const auto &leaf : mappedLeaves(sim)) {
            if (sim.transactionEngine().hasReplica(leaf.first)) {
                replicas.push_back(leaf);
            }
        }
    }
    ASSERT_GE(replicas.size(), 4u);
    std::vector<std::pair<Addr, bool>> others;
    for (const auto &leaf : mappedLeaves(sim)) {
        if (!sim.transactionEngine().hasReplica(leaf.first)) {
            others.push_back(leaf);
        }
    }

    // First writes in descending address order, each replica written
    // again later, with reads and other pages' writes in between.
    std::vector<Feedback> draws;
    Rng rng(3); // rng: test feedback draws
    std::vector<Addr> want;
    for (auto it = replicas.rbegin(); it != replicas.rend(); ++it) {
        const auto &[other, other_huge] =
            others[rng.nextBounded(others.size())];
        draws.push_back({it->first, it->second, false, 1});
        draws.push_back({other, other_huge, true, 1});
        draws.push_back({it->first, it->second, true, 1});
        want.push_back(it->first);
    }
    for (const auto &[base, huge] : replicas) {
        draws.push_back({base, huge, true, 1});
    }

    const Count dropped_before =
        sim.transactionEngine().stats().replicasDropped;
    ThreadPool pool(4);
    feedPerLane(sim.policy(), draws, pool);
    const Count dropped =
        sim.transactionEngine().stats().replicasDropped - dropped_before;
    ASSERT_EQ(dropped, replicas.size());

    std::vector<Addr> got;
    for (const TraceEvent &ev : sim.tracer().events()) {
        if (ev.kind == EventKind::ReplicaDropped) {
            got.push_back(ev.addr);
        }
    }
    ASSERT_GE(got.size(), dropped);
    got.erase(got.begin(), got.end() - static_cast<std::ptrdiff_t>(dropped));
    EXPECT_EQ(got, want);
    for (const auto &[base, huge] : replicas) {
        EXPECT_FALSE(sim.transactionEngine().hasReplica(base));
    }
}

// ---------------------------------------------------------------
// Sanity ordering: oracle <= thermostat <= static slowdown
// ---------------------------------------------------------------

/**
 * 128MB in three regions: a steadily hot half of the traffic, a
 * "warm" region whose 16MB working window rotates every 10s, and a
 * truly idle region.  The warm region is mapped first (lowest
 * addresses) and with 4KB pages -- its window is far bigger than
 * the TLB, so every reference to a poisoned warm page actually pays
 * the poison fault.  A one-shot coldest-first ranking (count zero
 * outside the current window, address-ascending tie break) pins the
 * warm pages and then pays for every rotation, while the oracle
 * sees the region's true rate and places only the idle region.
 */
std::unique_ptr<ComposedWorkload>
phasedTriRegionWorkload()
{
    auto w = std::make_unique<ComposedWorkload>(
        "tri-phase", 200.0e3, 0.8, 300 * kNsPerSec);
    w->addRegion({"warm", 32_MiB, 0, false, false});
    w->addRegion({"hot", 32_MiB, 0, true, false});
    w->addRegion({"cold", 64_MiB, 0, true, false});

    TrafficComponent hot;
    hot.region = "hot";
    hot.weight = 0.7;
    hot.writeFraction = 0.2;
    hot.burstLines = 4;
    hot.pattern = std::make_unique<UniformPattern>(32_MiB);
    w->addComponent(std::move(hot));

    TrafficComponent warm;
    warm.region = "warm";
    warm.weight = 0.3;
    warm.writeFraction = 0.2;
    warm.burstLines = 4;
    warm.pattern = std::make_unique<PhaseShiftPattern>(
        std::make_unique<UniformPattern>(16_MiB), 10 * kNsPerSec,
        8_MiB, 32_MiB);
    w->addComponent(std::move(warm));
    return w;
}

SimResult
runTriRegion(const std::string &policy, double cold_fraction)
{
    SimConfig config = tinySimConfig(5);
    config.duration = 240 * kNsPerSec;
    config.policy = policy;
    config.policyParams.coldFraction = cold_fraction;
    config.params.tolerableSlowdownPct = 1.0;
    Simulation sim(phasedTriRegionWorkload(), config);
    return sim.run();
}

TEST(PolicyOrdering, OracleBoundsThermostatBoundsStatic)
{
    const SimResult thermo = runTriRegion("thermostat", 0.0);
    ASSERT_GT(thermo.finalColdFraction, 0.05)
        << "thermostat placed too little for the comparison to mean "
           "anything";

    // Steer the knob-driven engines to the cold fraction thermostat
    // actually reached, capped below the idle region's share so the
    // oracle never runs out of truly cold pages.
    const double fraction =
        std::min(thermo.finalColdFraction, 0.45);
    const SimResult oracle = runTriRegion("oracle", fraction);
    const SimResult naive = runTriRegion("static", fraction);

    EXPECT_EQ(oracle.auditViolations, 0u);
    EXPECT_EQ(naive.auditViolations, 0u);

    // Absolute slack of 0.2% slowdown absorbs sampling noise without
    // masking a real inversion (the oracle/static gap is >10x that).
    const double slack = 0.002;
    EXPECT_LE(oracle.slowdown, thermo.slowdown + slack);
    EXPECT_LE(thermo.slowdown, naive.slowdown + slack);
    EXPECT_LT(oracle.slowdown, naive.slowdown);
}

} // namespace
} // namespace thermostat
