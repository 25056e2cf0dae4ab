/**
 * @file
 * Tests for the sampled-telemetry subsystem: AccessSampler
 * determinism and aggregates, the EpochFlightRecorder ring, the
 * phase Profiler's tree invariants, the JSON DOM parser backing
 * perf_diff, and the end-to-end Simulation wiring (flight rows per
 * epoch, byte-stable exports, Prometheus exposition, trace-overflow
 * accounting, Perfetto metadata).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/access_sampler.hh"
#include "obs/event_trace.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "sim/simulation.hh"
#include "workload/cloud_apps.hh"

namespace thermostat
{
namespace
{

// ---------------------------------------------------------------
// AccessSampler
// ---------------------------------------------------------------

/** Drive @p sampler with a fixed synthetic access stream. */
void
driveSampler(AccessSampler &sampler, std::uint64_t accesses,
             std::uint64_t seed)
{
    Rng rng(seed);
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const Addr page =
            alignDown4K(rng.nextBounded(1u << 30));
        sampler.onAccess(page, (page & kPageSize2M) != 0,
                         (i & 3) == 0, (page & 4096) != 0, 7);
    }
}

TEST(AccessSampler, SamplesAtRoughlyOneInPeriod)
{
    AccessSamplerConfig config;
    config.period = 64;
    AccessSampler sampler(config, 42);
    driveSampler(sampler, 1u << 20, 1);
    EXPECT_EQ(sampler.offered(), 1u << 20);
    const double rate =
        static_cast<double>(sampler.sampled()) /
        static_cast<double>(sampler.offered());
    EXPECT_NEAR(rate, 1.0 / 64.0, 0.25 / 64.0);
}

TEST(AccessSampler, SameSeedIsByteIdentical)
{
    AccessSamplerConfig config;
    config.period = 32;
    config.keepRecords = true;
    AccessSampler a(config, 42);
    AccessSampler b(config, 42);
    driveSampler(a, 200000, 9);
    driveSampler(b, 200000, 9);
    EXPECT_EQ(a.streamDigest(), b.streamDigest());
    EXPECT_EQ(a.sampled(), b.sampled());
    EXPECT_EQ(a.sampledWrites(), b.sampledWrites());
    EXPECT_EQ(a.sampledSlow(), b.sampledSlow());
    ASSERT_EQ(a.records().size(), b.records().size());
    for (std::size_t i = 0; i < a.records().size(); ++i) {
        EXPECT_EQ(a.records()[i].pageBase, b.records()[i].pageBase);
        EXPECT_EQ(a.records()[i].weight, b.records()[i].weight);
    }
    EXPECT_EQ(a.pageHotnessHistogram().totalSamples(),
              b.pageHotnessHistogram().totalSamples());
}

TEST(AccessSampler, DifferentSeedDiverges)
{
    AccessSamplerConfig config;
    config.period = 32;
    AccessSampler a(config, 42);
    AccessSampler b(config, 43);
    driveSampler(a, 200000, 9);
    driveSampler(b, 200000, 9);
    EXPECT_NE(a.streamDigest(), b.streamDigest());
}

TEST(AccessSampler, AggregatesAttributeWeightPerPageAndRegion)
{
    AccessSamplerConfig config;
    config.period = 1; // sample everything: aggregates are exact
    AccessSampler sampler(config, 42);
    const Addr hot = 4 * kPageSize2M;
    for (int i = 0; i < 100; ++i) {
        sampler.onAccess(hot, false, false, false, 3);
    }
    for (int i = 0; i < 10; ++i) {
        sampler.onAccess(hot + kPageSize4K, false, true, true, 1);
    }
    EXPECT_EQ(sampler.sampled(), 110u);
    EXPECT_EQ(sampler.sampledWrites(), 10u);
    EXPECT_EQ(sampler.sampledSlow(), 10u);
    EXPECT_EQ(sampler.pageWeight(hot), 300u);
    EXPECT_EQ(sampler.pageWeight(hot + kPageSize4K), 10u);
    EXPECT_EQ(sampler.regionWeight(hot), 310u);
    EXPECT_EQ(sampler.pagesSeen(), 2u);
    EXPECT_EQ(sampler.regionsSeen(), 1u);

    const auto top = sampler.hottestRegions(4);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].base, hot);
    EXPECT_EQ(top[0].weight, 310u);
}

TEST(AccessSampler, RecordRingIsBoundedFifo)
{
    AccessSamplerConfig config;
    config.period = 1;
    config.keepRecords = true;
    config.maxRecords = 8;
    AccessSampler sampler(config, 42);
    for (std::uint64_t i = 0; i < 20; ++i) {
        sampler.onAccess(i * kPageSize4K, false, false, false, 1);
    }
    EXPECT_EQ(sampler.records().size(), 8u);
    EXPECT_EQ(sampler.recordsDropped(), 12u);
    // Oldest first, so the survivors are accesses 12..19.
    EXPECT_EQ(sampler.records().front().pageBase, 12 * kPageSize4K);
    EXPECT_EQ(sampler.records().back().pageBase, 19 * kPageSize4K);
}

TEST(AccessSampler, OnAccessReportsEverySample)
{
    AccessSamplerConfig config;
    config.period = 16;
    AccessSampler sampler(config, 42);
    Rng rng(5);
    std::uint64_t reported = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) {
        const Addr page = alignDown4K(rng.nextBounded(1u << 30));
        if (sampler.onAccess(page, false, (i & 3) == 0, false, 7)) {
            ++reported;
        }
    }
    EXPECT_EQ(reported, sampler.sampled());
    EXPECT_GT(reported, 0u);
}

// ---------------------------------------------------------------
// EpochFlightRecorder
// ---------------------------------------------------------------

TEST(FlightRecorder, RingWrapKeepsNewestAndCountsDrops)
{
    EpochFlightRecorder rec({"a", "b"}, 4);
    for (std::uint64_t i = 1; i <= 10; ++i) {
        rec.append(static_cast<Ns>(i) * kNsPerSec,
                   {static_cast<double>(i), 0.5});
    }
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.capacity(), 4u);
    EXPECT_EQ(rec.totalAppended(), 10u);
    EXPECT_EQ(rec.droppedRows(), 6u);
    const auto rows = rec.rows();
    ASSERT_EQ(rows.size(), 4u);
    // Oldest-first: epochs 7..10 survive.
    EXPECT_DOUBLE_EQ(rows.front().values[0], 7.0);
    EXPECT_DOUBLE_EQ(rows.back().values[0], 10.0);
    EXPECT_EQ(rec.columnIndex("b"), 1);
    EXPECT_EQ(rec.columnIndex("missing"), -1);
}

TEST(FlightRecorder, BoundedMemoryAcrossManyAppends)
{
    EpochFlightRecorder rec({"v"}, 16);
    for (std::uint64_t i = 0; i < 100000; ++i) {
        rec.append(static_cast<Ns>(i), {static_cast<double>(i)});
    }
    EXPECT_EQ(rec.size(), 16u);
    EXPECT_EQ(rec.droppedRows(), 100000u - 16u);
}

TEST(FlightRecorder, ExportsAreWellFormedAndCarryMeta)
{
    EpochFlightRecorder rec({"x", "y"}, 8);
    rec.append(kNsPerSec, {1.5, -2.0});
    rec.append(2 * kNsPerSec, {0.0, 3.25});

    const std::string jsonl = rec.toJsonl();
    std::size_t lines = 0;
    std::size_t start = 0;
    for (std::size_t nl = jsonl.find('\n'); nl != std::string::npos;
         nl = jsonl.find('\n', start)) {
        EXPECT_TRUE(
            jsonWellFormed(jsonl.substr(start, nl - start)));
        start = nl + 1;
        ++lines;
    }
    EXPECT_EQ(lines, 3u); // 2 rows + meta
    EXPECT_NE(jsonl.find("\"meta\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"dropped\":0"), std::string::npos);

    const std::string csv = rec.toCsv();
    EXPECT_EQ(csv.rfind("t_sec,x,y\n", 0), 0u);
}

// ---------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------

TEST(Profiler, RecordedChildrenStayOutOfTheTimedTree)
{
    Profiler prof(true);
    {
        PhaseScope stream(&prof, "stream");
        prof.record("lanes_busy_max", 5'000'000'000ULL);
    }
    const Profiler::Node &stream = prof.nodes()[1];
    const Profiler::Node &busy = prof.nodes()[2];
    EXPECT_TRUE(busy.concurrent);
    EXPECT_EQ(busy.count, 1u);
    EXPECT_EQ(busy.totalNs, 5'000'000'000ULL);
    // Host time of other threads: not part of the parent's interval.
    EXPECT_EQ(prof.childrenTotal(stream), 0u);
    EXPECT_EQ(prof.selfNs(stream), stream.totalNs);
    EXPECT_NE(prof.toJson().find("\"concurrent\":true"),
              std::string::npos);
}

TEST(Profiler, TreeInvariantsHold)
{
    Profiler prof(true);
    for (int i = 0; i < 3; ++i) {
        PhaseScope outer(&prof, "epoch");
        {
            PhaseScope inner(&prof, "tick");
        }
        {
            PhaseScope inner(&prof, "stream");
        }
    }
    // Nodes: root, epoch, tick, stream.
    ASSERT_EQ(prof.nodes().size(), 4u);
    for (const Profiler::Node &node : prof.nodes()) {
        EXPECT_LE(prof.childrenTotal(node), node.totalNs)
            << node.name;
        EXPECT_LE(prof.selfNs(node), node.totalNs) << node.name;
        EXPECT_EQ(prof.selfNs(node) + prof.childrenTotal(node),
                  node.totalNs)
            << node.name;
    }
    const Profiler::Node &epoch = prof.nodes()[1];
    EXPECT_EQ(epoch.name, "epoch");
    EXPECT_EQ(epoch.count, 3u);
    EXPECT_EQ(epoch.children.size(), 2u);
    EXPECT_TRUE(jsonWellFormed(prof.toJson()));
    EXPECT_NE(prof.toText().find("epoch"), std::string::npos);
}

TEST(Profiler, DisabledProfilerRecordsNothing)
{
    Profiler prof(false);
    {
        PhaseScope scope(&prof, "epoch");
    }
    EXPECT_EQ(prof.nodes().size(), 1u);
    EXPECT_EQ(prof.root().count, 0u);
}

TEST(Profiler, SameNameReusesNodePerParent)
{
    Profiler prof(true);
    {
        PhaseScope a(&prof, "phase");
        PhaseScope nested(&prof, "phase");
    }
    {
        PhaseScope b(&prof, "phase");
    }
    // Root's "phase" child and its own nested "phase" child.
    ASSERT_EQ(prof.nodes().size(), 3u);
    EXPECT_EQ(prof.nodes()[1].count, 2u);
    EXPECT_EQ(prof.nodes()[2].count, 1u);
}

// ---------------------------------------------------------------
// JSON DOM parser (perf_diff's substrate)
// ---------------------------------------------------------------

TEST(JsonParser, ParsesBenchSchema)
{
    const std::string text =
        "{\"bench\":\"x\",\"quick\":true,\"scenarios\":["
        "{\"name\":\"a\",\"accesses_per_sec\":1.5e6},"
        "{\"name\":\"b\",\"accesses_per_sec\":2000}]}";
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(text, &doc, &error)) << error;
    EXPECT_TRUE(doc.isObject());
    EXPECT_EQ(doc.member("bench").asString(), "x");
    EXPECT_TRUE(doc.member("quick").asBool());
    const auto &scenarios = doc.member("scenarios").elements();
    ASSERT_EQ(scenarios.size(), 2u);
    EXPECT_EQ(scenarios[0].member("name").asString(), "a");
    EXPECT_DOUBLE_EQ(
        scenarios[0].member("accesses_per_sec").asNumber(), 1.5e6);
    EXPECT_DOUBLE_EQ(
        scenarios[1].member("accesses_per_sec").asNumber(), 2000.0);
    EXPECT_FALSE(doc.hasMember("absent"));
    EXPECT_TRUE(doc.member("absent").isNull());
}

TEST(JsonParser, RejectsMalformedInput)
{
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parseJson("{\"a\":}", &doc, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseJson("", &doc, &error));
    EXPECT_FALSE(parseJson("{\"a\":1} trailing", &doc, &error));
    EXPECT_FALSE(parseJson("[1,2,", &doc, &error));

    // jsonWellFormed() is parseJson() with the value discarded, so
    // both reject every malformed shape: a bad escape, a raw control
    // character, a short \u escape, a bare exponent, a lone minus,
    // and a value nested 65 levels deep (the limit is 64).
    const std::string bad[] = {
        "\"a\\qb\"",
        "\"a\tb\"",
        "\"\\u12\"",
        "1e",
        "-",
        std::string(65, '[') + "1" + std::string(65, ']'),
    };
    for (const std::string &text : bad) {
        error.clear();
        EXPECT_FALSE(parseJson(text, &doc, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
        EXPECT_FALSE(jsonWellFormed(text)) << text;
    }
    const std::string deepest =
        std::string(64, '[') + "1" + std::string(64, ']');
    EXPECT_TRUE(parseJson(deepest, &doc, &error)) << error;
    EXPECT_TRUE(jsonWellFormed(deepest));
}

TEST(JsonParser, RoundTripsWriterOutput)
{
    JsonWriter w;
    w.beginObject();
    w.key("nested");
    w.beginObject();
    w.key("esc\"aped");
    w.value("tab\there");
    w.endObject();
    w.key("list");
    w.beginArray();
    w.value(std::uint64_t{7});
    w.value(-0.5);
    w.value(false);
    w.endArray();
    w.endObject();
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(w.str(), &doc, &error)) << error;
    EXPECT_EQ(doc.member("nested").member("esc\"aped").asString(),
              "tab\there");
    ASSERT_EQ(doc.member("list").elements().size(), 3u);
    EXPECT_DOUBLE_EQ(doc.member("list").elements()[1].asNumber(),
                     -0.5);
}

// ---------------------------------------------------------------
// Simulation wiring
// ---------------------------------------------------------------

SimConfig
smallConfig(Ns duration_sec)
{
    SimConfig config;
    config.samplesPerEpoch = 2000;
    config.duration = duration_sec * kNsPerSec;
    return config;
}

TEST(SimulationTelemetry, OneFlightRowPerMeasuredEpoch)
{
    Simulation sim(makeWorkload("web-search", 42),
                   smallConfig(6));
    sim.run();
    EXPECT_EQ(sim.flightRecorder().size(), 6u);
    EXPECT_EQ(sim.flightRecorder().droppedRows(), 0u);
    ASSERT_NE(sim.accessSampler(), nullptr);
    EXPECT_GT(sim.accessSampler()->sampled(), 0u);
    const int idx = sim.flightRecorder().columnIndex("sampled");
    ASSERT_GE(idx, 0);
    std::uint64_t total = 0;
    for (const EpochRow &row : sim.flightRecorder().rows()) {
        total += static_cast<std::uint64_t>(
            row.values[static_cast<std::size_t>(idx)]);
    }
    EXPECT_EQ(total, sim.accessSampler()->sampled());
}

TEST(SimulationTelemetry, WarmupEpochsAreNotRecorded)
{
    SimConfig config = smallConfig(4);
    config.warmup = 3 * kNsPerSec;
    Simulation sim(makeWorkload("web-search", 42), config);
    sim.run();
    EXPECT_EQ(sim.flightRecorder().size(), 4u);
}

TEST(SimulationTelemetry, FlightExportIsByteStableAcrossRuns)
{
    auto run = [] {
        Simulation sim(makeWorkload("web-search", 42),
                       smallConfig(5));
        sim.run();
        return sim.flightRecorder().toJsonl();
    };
    const std::string first = run();
    const std::string second = run();
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
}

TEST(SimulationTelemetry, SamplerOffRemovesTapAndKeepsResults)
{
    SimConfig config = smallConfig(4);
    Simulation with(makeWorkload("web-search", 42), config);
    const SimResult r1 = with.run();

    config.sampler.period = 0;
    Simulation without(makeWorkload("web-search", 42), config);
    const SimResult r2 = without.run();

    EXPECT_EQ(without.accessSampler(), nullptr);
    // Observe-only: attaching the sampler cannot move results.
    EXPECT_DOUBLE_EQ(r1.slowdown, r2.slowdown);
    EXPECT_DOUBLE_EQ(r1.actualSeconds, r2.actualSeconds);
    EXPECT_EQ(r1.machineStats.accesses, r2.machineStats.accesses);
}

TEST(SimulationTelemetry, ProfilerCoversTheRunPhases)
{
    Simulation sim(makeWorkload("web-search", 42),
                   smallConfig(4));
    sim.run();
    const std::string json = sim.profiler().toJson();
    EXPECT_TRUE(jsonWellFormed(json));
    EXPECT_NE(json.find("\"epoch\""), std::string::npos);
    EXPECT_NE(json.find("\"timing_stream\""), std::string::npos);
    EXPECT_NE(json.find("\"policy_tick\""), std::string::npos);
    for (const Profiler::Node &node : sim.profiler().nodes()) {
        EXPECT_LE(sim.profiler().childrenTotal(node), node.totalNs)
            << node.name;
    }
}

TEST(SimulationTelemetry, PrometheusExposesTelemetryFamilies)
{
    Simulation sim(makeWorkload("web-search", 42),
                   smallConfig(3));
    sim.run();
    const std::string prom = sim.metrics().dumpPrometheus();
    EXPECT_NE(prom.find("# TYPE thermostat_sampler_offered gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("thermostat_trace_dropped_events"),
              std::string::npos);
    EXPECT_NE(prom.find("thermostat_flight_rows"),
              std::string::npos);
}

TEST(EventTracerOverflow, DroppedEventsAreCountedAndExposed)
{
    EventTracer tracer(4);
    MetricRegistry metrics;
    tracer.registerMetrics(metrics);
    for (int i = 0; i < 10; ++i) {
        tracer.record(EventKind::PageSampled, i, 0, false);
    }
    EXPECT_EQ(tracer.dropped(), 6u);
    double dropped = -1.0;
    for (const MetricSample &s : metrics.snapshot()) {
        if (s.name == "trace/dropped_events") {
            dropped = s.value;
        }
    }
    EXPECT_DOUBLE_EQ(dropped, 6.0);
}

TEST(EventTracerPerfetto, EmitsProcessAndThreadNames)
{
    EventTracer tracer(16);
    tracer.record(EventKind::PageSampled, 1, 0, false);
    const std::string chrome = tracer.toChromeTrace();
    EXPECT_TRUE(jsonWellFormed(chrome));
    EXPECT_NE(chrome.find("\"process_name\""), std::string::npos);
    EXPECT_NE(chrome.find("\"thread_name\""), std::string::npos);
}

} // namespace
} // namespace thermostat
