/**
 * @file
 * Tests for the observability layer: metric registry semantics,
 * event-trace ring behaviour, exporter well-formedness, the
 * lifecycle auditor, log capture, and an end-to-end run that must
 * come out audit-clean.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/event_trace.hh"
#include "obs/json.hh"
#include "obs/lifecycle_audit.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "policy/policy_factory.hh"
#include "sim/simulation.hh"
#include "sys/migration.hh"

namespace thermostat
{
namespace
{

// ---------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------

TEST(MetricRegistry, CounterAndGaugeRoundTrip)
{
    MetricRegistry reg;
    Counter &c = reg.counter("a.hits");
    Gauge &g = reg.gauge("a.level");
    c.inc(3);
    ++c;
    g.set(1.5);
    EXPECT_EQ(c.value(), 4u);
    EXPECT_TRUE(reg.contains("a.hits"));
    EXPECT_TRUE(reg.contains("a.level"));
    EXPECT_FALSE(reg.contains("a.misses"));

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "a.hits");
    EXPECT_DOUBLE_EQ(snap[0].value, 4.0);
    EXPECT_EQ(snap[1].name, "a.level");
    EXPECT_DOUBLE_EQ(snap[1].value, 1.5);
}

TEST(MetricRegistry, CallbackEvaluatedAtSnapshotTime)
{
    MetricRegistry reg;
    double source = 1.0;
    reg.addCallback("x.now", [&source] { return source; });
    source = 42.0;
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_DOUBLE_EQ(snap[0].value, 42.0);
}

TEST(MetricRegistry, HistogramExpandsInSnapshot)
{
    MetricRegistry reg;
    Log2Histogram &h = reg.histogram("lat");
    for (int i = 0; i < 100; ++i) {
        h.add(8);
    }
    const auto snap = reg.snapshot();
    std::vector<std::string> names;
    for (const auto &s : snap) {
        names.push_back(s.name);
    }
    EXPECT_EQ(names, (std::vector<std::string>{
                         "lat.p50", "lat.p99", "lat.samples"}));
}

TEST(MetricRegistryDeathTest, DuplicateNamePanics)
{
    MetricRegistry reg;
    reg.counter("dup");
    EXPECT_DEATH(reg.counter("dup"), "dup");
    EXPECT_DEATH(reg.gauge("dup"), "dup");
}

TEST(MetricRegistryDeathTest, TreeConflictPanics)
{
    MetricRegistry reg;
    reg.counter("a.b");
    // "a.b" is a leaf; making it an interior node breaks the
    // hierarchical dump.
    EXPECT_DEATH(reg.counter("a.b.c"), "a.b");

    MetricRegistry reg2;
    reg2.counter("a.b.c");
    EXPECT_DEATH(reg2.counter("a.b"), "a.b");
}

TEST(MetricRegistry, ResetClearsOwnedButNotCallbacks)
{
    MetricRegistry reg;
    Counter &c = reg.counter("c");
    Gauge &g = reg.gauge("g");
    reg.addCallback("cb", [] { return 9.0; });
    c.inc(5);
    g.set(2.0);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_DOUBLE_EQ(snap[1].value, 9.0); // "cb" untouched
}

TEST(MetricRegistry, DumpsAreWellFormed)
{
    MetricRegistry reg;
    reg.counter("machine.tlb.l1.hits").inc(7);
    reg.gauge("machine.tlb.miss_ratio").set(0.25);
    reg.counter("engine.periods").inc(1);
    const std::string json = reg.dumpJson();
    EXPECT_TRUE(jsonWellFormed(json)) << json;
    EXPECT_NE(json.find("\"machine\""), std::string::npos);
    EXPECT_NE(json.find("\"l1\""), std::string::npos);

    const std::string text = reg.dumpText();
    EXPECT_NE(text.find("machine.tlb.l1.hits"), std::string::npos);
}

// ---------------------------------------------------------------
// EventTracer
// ---------------------------------------------------------------

TEST(EventTracer, RingWraparoundKeepsNewest)
{
    EventTracer tracer(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        tracer.record(EventKind::PageDemoted, i, 0x1000 * i);
    }
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
    EXPECT_EQ(tracer.totalEmitted(), 10u);
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest first: times 6,7,8,9.
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].time, 6 + i);
    }
}

TEST(EventTracer, MaskFiltersRingButNotSink)
{
    EventTracer tracer(16);
    tracer.setMask(kEvMigrate);
    std::size_t sink_count = 0;
    tracer.setSink([&](const TraceEvent &) { ++sink_count; });
    tracer.record(EventKind::PagePoisoned, 1, 0x1000);
    tracer.record(EventKind::PageDemoted, 2, 0x2000);
    EXPECT_EQ(tracer.size(), 1u);
    EXPECT_EQ(sink_count, 2u);
    EXPECT_EQ(tracer.events()[0].kind, EventKind::PageDemoted);
}

TEST(EventTracer, ClearEmptiesRing)
{
    EventTracer tracer(8);
    tracer.record(EventKind::PageSampled, 1, 0);
    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_TRUE(tracer.events().empty());
}

TEST(EventTracer, ParseEventMask)
{
    std::uint32_t mask = 0;
    EXPECT_TRUE(parseEventMask("all", &mask));
    EXPECT_EQ(mask, kEvAll);
    EXPECT_TRUE(parseEventMask("none", &mask));
    EXPECT_EQ(mask, 0u);
    EXPECT_TRUE(parseEventMask("sample,migrate", &mask));
    EXPECT_EQ(mask, kEvSample | kEvMigrate);
    EXPECT_FALSE(parseEventMask("sample,bogus", &mask));
    EXPECT_FALSE(parseEventMask("fault", &mask));
}

TEST(EventTracer, PhaseScopeEmitsPhase)
{
    EventTracer tracer(8);
    Profiler profiler;
    {
        PhaseScope scope(&profiler, "tick", &tracer);
    }
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, EventKind::Phase);
    EXPECT_STREQ(events[0].name, "tick");

    // The same interval lands in the profile tree.
    ASSERT_EQ(profiler.nodes().size(), 2u);
    EXPECT_EQ(profiler.nodes()[1].name, "tick");
    EXPECT_EQ(profiler.nodes()[1].count, 1u);
    EXPECT_EQ(profiler.nodes()[1].totalNs, events[0].value);

    // Profiler-only scopes emit no trace events.
    {
        PhaseScope scope(&profiler, "tick");
    }
    EXPECT_EQ(tracer.events().size(), 1u);
    EXPECT_EQ(profiler.nodes()[1].count, 2u);
}

TEST(EventTracer, ExportsAreWellFormed)
{
    EventTracer tracer(32);
    tracer.record(EventKind::PageSampled, 5, 0x200000, true);
    tracer.record(EventKind::PageDemoted, 9, 0x200000, true,
                  kPageSize2M);
    {
        PhaseScope scope(nullptr, "phase \"quoted\"", &tracer);
    }
    const std::string chrome = tracer.toChromeTrace();
    EXPECT_TRUE(jsonWellFormed(chrome)) << chrome;
    EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(chrome.find("\\\"quoted\\\""), std::string::npos);

    // Each JSONL line is itself a JSON object.
    const std::string jsonl = tracer.toJsonl();
    std::size_t start = 0;
    std::size_t lines = 0;
    while (start < jsonl.size()) {
        std::size_t end = jsonl.find('\n', start);
        if (end == std::string::npos) {
            end = jsonl.size();
        }
        EXPECT_TRUE(
            jsonWellFormed(jsonl.substr(start, end - start)));
        ++lines;
        start = end + 1;
    }
    EXPECT_EQ(lines, 3u);
}

// ---------------------------------------------------------------
// LifecycleAuditor
// ---------------------------------------------------------------

TEST(LifecycleAuditor, CleanStreamPasses)
{
    LifecycleAuditor audit;
    EventTracer tracer(16);
    tracer.setSink(
        [&](const TraceEvent &ev) { audit.onEvent(ev); });
    tracer.record(EventKind::PageDemoted, 1, 0x200000, true,
                  kPageSize2M);
    tracer.record(EventKind::PagePoisoned, 2, 0x200000, true);
    tracer.record(EventKind::PageUnpoisoned, 3, 0x200000, true);
    tracer.record(EventKind::PagePromoted, 4, 0x200000, true,
                  kPageSize2M);
    EXPECT_TRUE(audit.ok());
    EXPECT_EQ(audit.demotedBytes(), kPageSize2M);
    EXPECT_EQ(audit.promotedBytes(), kPageSize2M);
}

TEST(LifecycleAuditor, FlagsDoubleDemotion)
{
    LifecycleAuditor audit;
    audit.onEvent({1, EventKind::PageDemoted, false, 0x1000,
                   kPageSize4K, nullptr});
    audit.onEvent({2, EventKind::PageDemoted, false, 0x1000,
                   kPageSize4K, nullptr});
    EXPECT_FALSE(audit.ok());
    EXPECT_EQ(audit.violations(), 1u);
}

TEST(LifecycleAuditor, FlagsPromotionFromFastMemory)
{
    LifecycleAuditor audit;
    audit.onEvent({1, EventKind::PagePromoted, false, 0x1000,
                   kPageSize4K, nullptr});
    EXPECT_FALSE(audit.ok());
}

TEST(LifecycleAuditor, FlagsHugePoisonInFastMemory)
{
    LifecycleAuditor audit;
    audit.onEvent({1, EventKind::PagePoisoned, true, 0x200000, 0,
                   nullptr});
    EXPECT_FALSE(audit.ok());
}

TEST(LifecycleAuditor, FlagsNonMonotonicTime)
{
    LifecycleAuditor audit;
    audit.onEvent({10, EventKind::PageSampled, false, 0x1000, 0,
                   nullptr});
    audit.onEvent({5, EventKind::PageSampled, false, 0x2000, 0,
                   nullptr});
    EXPECT_FALSE(audit.ok());
}

TEST(LifecycleAuditor, FinishCrossChecksByteTotals)
{
    LifecycleAuditor audit;
    audit.onEvent({1, EventKind::PageDemoted, false, 0x1000,
                   kPageSize4K, nullptr});
    MigrationStats migration;
    migration.bytesDemoted = kPageSize4K;
    TierStats slow;
    slow.migrationBytesIn = kPageSize4K;
    audit.finish(migration, slow);
    EXPECT_TRUE(audit.ok());

    // A mismatching migrator total must be flagged.
    LifecycleAuditor bad;
    bad.onEvent({1, EventKind::PageDemoted, false, 0x1000,
                 kPageSize4K, nullptr});
    migration.bytesDemoted = 2 * kPageSize4K;
    bad.finish(migration, slow);
    EXPECT_FALSE(bad.ok());
}

// ---------------------------------------------------------------
// Log capture
// ---------------------------------------------------------------

TEST(Logging, ScopedCaptureCollectsWarnings)
{
    ScopedLogCapture capture;
    TSTAT_WARN("w%d happened", 1);
    TSTAT_INFORM("i%d happened", 2);
    EXPECT_EQ(capture.entries().size(), 2u);
    EXPECT_EQ(capture.count(LogKind::Warn), 1u);
    EXPECT_EQ(capture.count(LogKind::Inform), 1u);
    EXPECT_TRUE(capture.contains("w1 happened"));
    EXPECT_FALSE(capture.contains("nope"));
}

TEST(Logging, CaptureRespectsLogLevel)
{
    setLogLevel(LogLevel::Quiet);
    {
        ScopedLogCapture capture;
        TSTAT_INFORM("suppressed");
        TSTAT_WARN("kept");
        EXPECT_EQ(capture.entries().size(), 1u);
        EXPECT_TRUE(capture.contains("kept"));
    }
    setLogLevel(LogLevel::Normal);
}

TEST(Logging, ParseLogLevel)
{
    LogLevel level;
    EXPECT_TRUE(parseLogLevel("quiet", &level));
    EXPECT_EQ(level, LogLevel::Quiet);
    EXPECT_TRUE(parseLogLevel("verbose", &level));
    EXPECT_EQ(level, LogLevel::Verbose);
    EXPECT_FALSE(parseLogLevel("chatty", &level));
}

// ---------------------------------------------------------------
// End to end: a small run must be audit-clean and exportable.
// ---------------------------------------------------------------

std::unique_ptr<ComposedWorkload>
halfColdWorkload()
{
    auto w = std::make_unique<ComposedWorkload>(
        "half-cold", 200.0e3, 0.8, 300 * kNsPerSec);
    w->addRegion({"data", 64_MiB, 0, true, false});
    TrafficComponent hot;
    hot.region = "data";
    hot.weight = 1.0;
    hot.writeFraction = 0.2;
    hot.burstLines = 4;
    hot.pattern = std::make_unique<UniformPattern>(32_MiB);
    w->addComponent(std::move(hot));
    return w;
}

SimConfig
tinySimConfig()
{
    SimConfig config;
    config.seed = 7;
    config.samplesPerEpoch = 4000;
    config.profileWeight = 5;
    config.machine.fastTier = TierConfig::dram(256_MiB);
    config.machine.slowTier = TierConfig::slow(256_MiB);
    config.machine.llc.sizeBytes = 1_MiB;
    config.params.sampleFraction = 0.25;
    config.duration = 100 * kNsPerSec;
    return config;
}

TEST(ObservabilityEndToEnd, SimulationIsAuditCleanAndExports)
{
    Simulation sim(halfColdWorkload(), tinySimConfig());
    const SimResult result = sim.run();
    EXPECT_EQ(result.auditViolations, 0u);
    EXPECT_TRUE(sim.auditor().ok());
    EXPECT_GT(sim.auditor().eventsSeen(), 0u);
    EXPECT_FALSE(sim.snapshots().empty());

    const std::string metrics = sim.metricsJson();
    EXPECT_TRUE(jsonWellFormed(metrics));
    EXPECT_NE(metrics.find("\"machine\""), std::string::npos);
    EXPECT_NE(metrics.find("\"engine\""), std::string::npos);

    const std::string chrome = sim.tracer().toChromeTrace();
    EXPECT_TRUE(jsonWellFormed(chrome));
    EXPECT_NE(chrome.find("\"demoted\""), std::string::npos);
}

TEST(ObservabilityEndToEnd, EveryPolicyRegistersItsPrefixOnce)
{
    for (const std::string &name : PolicyFactory::names()) {
        SCOPED_TRACE(name);
        SimConfig config = tinySimConfig();
        config.policy = name;
        // Registration happens in the constructor; no run needed.
        Simulation sim(halfColdWorkload(), config);
        const std::string ticks =
            TieringPolicy::metricPrefix(name) + ".ticks";
        std::size_t hits = 0;
        std::size_t foreign = 0;
        for (const MetricSample &sample : sim.metrics().snapshot()) {
            if (sample.name == ticks) {
                ++hits;
            }
            if (sample.name.rfind("policy/", 0) == 0 &&
                sample.name.rfind(
                    TieringPolicy::metricPrefix(name) + ".", 0) !=
                    0) {
                ++foreign;
            }
        }
        EXPECT_EQ(hits, 1u);
        // Only the active policy's namespace exists.
        EXPECT_EQ(foreign, 0u);
    }
}

TEST(ObservabilityEndToEnd, KhugepagedRunIsAuditClean)
{
    // Regression: khugepaged used to collapse ranges the engine had
    // split for profiling before the poison stage marked them,
    // turning the subpage poison into a whole-huge-page poison in
    // fast memory (flagged by the auditor).
    SimConfig config = tinySimConfig();
    config.khugepagedEnabled = true;
    Simulation sim(halfColdWorkload(), config);
    const SimResult result = sim.run();
    EXPECT_EQ(result.auditViolations, 0u);
}

TEST(ObservabilityEndToEnd, TraceMaskLimitsRingContents)
{
    SimConfig config = tinySimConfig();
    config.traceMask = kEvMigrate;
    Simulation sim(halfColdWorkload(), config);
    sim.run();
    for (const TraceEvent &ev : sim.tracer().events()) {
        EXPECT_EQ(eventCategory(ev.kind), kEvMigrate);
    }
    // The auditor still saw the unmasked stream.
    EXPECT_GT(sim.auditor().eventsSeen(),
              sim.tracer().totalEmitted() / 2);
    EXPECT_TRUE(sim.auditor().ok());
}

} // namespace
} // namespace thermostat
