#include "obs/event_trace.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"

namespace thermostat
{

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::PageSampled:
        return "sampled";
      case EventKind::PageSplit:
        return "split";
      case EventKind::PagePoisoned:
        return "poisoned";
      case EventKind::PageUnpoisoned:
        return "unpoisoned";
      case EventKind::ClassifiedHot:
        return "classified_hot";
      case EventKind::ClassifiedCold:
        return "classified_cold";
      case EventKind::PageCollapsed:
        return "collapsed";
      case EventKind::CollapseFailed:
        return "collapse_failed";
      case EventKind::PageDemoted:
        return "demoted";
      case EventKind::PagePromoted:
        return "promoted";
      case EventKind::Corrected:
        return "corrected";
      case EventKind::PageSpread:
        return "spread";
      case EventKind::MigrationFailed:
        return "migration_failed";
      case EventKind::MigrationThrottled:
        return "migration_throttled";
      case EventKind::PolicyDemote:
        return "policy_demote";
      case EventKind::PolicyPromote:
        return "policy_promote";
      case EventKind::TransactionStarted:
        return "txn_started";
      case EventKind::TransactionCommitted:
        return "txn_committed";
      case EventKind::TransactionAborted:
        return "txn_aborted";
      case EventKind::ReplicaRetained:
        return "replica_retained";
      case EventKind::ReplicaDropped:
        return "replica_dropped";
      case EventKind::QueueRejected:
        return "queue_rejected";
      case EventKind::Phase:
        return "phase";
    }
    return "unknown";
}

EventCategory
eventCategory(EventKind kind)
{
    switch (kind) {
      case EventKind::PageSampled:
      case EventKind::PageSplit:
        return kEvSample;
      case EventKind::PagePoisoned:
      case EventKind::PageUnpoisoned:
        return kEvPoison;
      case EventKind::ClassifiedHot:
      case EventKind::ClassifiedCold:
      case EventKind::PageCollapsed:
      case EventKind::CollapseFailed:
        return kEvClassify;
      case EventKind::PageDemoted:
      case EventKind::PagePromoted:
      case EventKind::PageSpread:
      case EventKind::MigrationFailed:
      case EventKind::MigrationThrottled:
      case EventKind::TransactionStarted:
      case EventKind::TransactionCommitted:
      case EventKind::TransactionAborted:
      case EventKind::ReplicaRetained:
      case EventKind::ReplicaDropped:
      case EventKind::QueueRejected:
        return kEvMigrate;
      case EventKind::Corrected:
        return kEvCorrect;
      case EventKind::PolicyDemote:
      case EventKind::PolicyPromote:
        return kEvPolicy;
      case EventKind::Phase:
        return kEvPhase;
    }
    return kEvSample;
}

namespace
{

const char *
categoryName(EventCategory cat)
{
    switch (cat) {
      case kEvSample:
        return "sample";
      case kEvPoison:
        return "poison";
      case kEvClassify:
        return "classify";
      case kEvMigrate:
        return "migrate";
      case kEvCorrect:
        return "correct";
      case kEvPhase:
        return "phase";
      case kEvPolicy:
        return "policy";
      default:
        return "all";
    }
}

} // namespace

bool
parseEventMask(const std::string &spec, std::uint32_t *mask_out)
{
    std::uint32_t mask = 0;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos) {
            end = spec.size();
        }
        const std::string token = spec.substr(start, end - start);
        if (token == "all") {
            mask |= kEvAll;
        } else if (token == "none") {
            // explicit empty mask
        } else if (token == "sample") {
            mask |= kEvSample;
        } else if (token == "poison") {
            mask |= kEvPoison;
        } else if (token == "classify") {
            mask |= kEvClassify;
        } else if (token == "migrate") {
            mask |= kEvMigrate;
        } else if (token == "correct") {
            mask |= kEvCorrect;
        } else if (token == "phase") {
            mask |= kEvPhase;
        } else if (token == "policy") {
            mask |= kEvPolicy;
        } else if (!token.empty()) {
            return false;
        }
        if (end == spec.size()) {
            break;
        }
        start = end + 1;
    }
    *mask_out = mask;
    return true;
}

EventTracer::EventTracer(std::size_t capacity)
    : buffer_(std::max<std::size_t>(capacity, 1)),
      hostEpoch_(std::chrono::steady_clock::now())
{
}

Ns
EventTracer::hostNow() const
{
    return static_cast<Ns>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - hostEpoch_)
            .count());
}

void
EventTracer::emit(const TraceEvent &event)
{
    ++totalEmitted_;
    if (sink_) {
        sink_(event);
    }
    if (!(mask_ & eventCategory(event.kind))) {
        return;
    }
    if (count_ == buffer_.size()) {
        ++dropped_;
        if (!overflowWarned_) {
            overflowWarned_ = true;
            TSTAT_WARN(
                "event ring overflowed at capacity %zu; oldest "
                "events are being dropped from exports (see "
                "trace/dropped_events; sink consumers such as the "
                "lifecycle auditor still see the full stream). "
                "Raise SimConfig.traceCapacity or narrow "
                "--trace-events to keep the full trace.",
                buffer_.size());
        }
    } else {
        ++count_;
    }
    buffer_[head_] = event;
    head_ = (head_ + 1) % buffer_.size();
}

std::vector<TraceEvent>
EventTracer::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(count_);
    const std::size_t start =
        (head_ + buffer_.size() - count_) % buffer_.size();
    for (std::size_t i = 0; i < count_; ++i) {
        out.push_back(buffer_[(start + i) % buffer_.size()]);
    }
    return out;
}

void
EventTracer::clear()
{
    head_ = 0;
    count_ = 0;
    dropped_ = 0;
    totalEmitted_ = 0;
    overflowWarned_ = false;
}

void
EventTracer::registerMetrics(MetricRegistry &registry) const
{
    registry.addCallback("trace/emitted_events", [this] {
        return static_cast<double>(totalEmitted_);
    });
    registry.addCallback("trace/dropped_events", [this] {
        return static_cast<double>(dropped_);
    });
}

std::string
EventTracer::toJsonl() const
{
    std::string out;
    for (const TraceEvent &ev : events()) {
        JsonWriter w;
        w.beginObject();
        w.key("t_ns");
        w.value(ev.time);
        w.key("kind");
        w.value(eventKindName(ev.kind));
        w.key("cat");
        w.value(categoryName(eventCategory(ev.kind)));
        if (ev.kind == EventKind::Phase) {
            w.key("name");
            w.value(ev.name ? ev.name : "");
            w.key("dur_ns");
            w.value(ev.value);
        } else {
            w.key("addr");
            w.value(ev.addr);
            w.key("huge");
            w.value(ev.huge);
            w.key("value");
            w.value(ev.value);
        }
        w.endObject();
        out += w.str();
        out += '\n';
    }
    return out;
}

std::string
EventTracer::toChromeTrace() const
{
    std::vector<TraceEvent> evs = events();
    // Stable sort by (track, timestamp) so every track's timeline is
    // monotonic even though phase slices are emitted at scope exit.
    std::stable_sort(evs.begin(), evs.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         const bool pa = a.kind == EventKind::Phase;
                         const bool pb = b.kind == EventKind::Phase;
                         if (pa != pb) {
                             return pa < pb;
                         }
                         return a.time < b.time;
                     });

    JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit");
    w.value("ms");
    w.key("traceEvents");
    w.beginArray();

    // Perfetto/chrome://tracing label tracks via metadata records;
    // without both process_name and thread_name the UI shows bare
    // pid/tid numbers.
    auto meta = [&w](const char *meta_name, std::uint64_t pid,
                     std::uint64_t tid, const char *name) {
        w.beginObject();
        w.key("name");
        w.value(meta_name);
        w.key("ph");
        w.value("M");
        w.key("pid");
        w.value(pid);
        w.key("tid");
        w.value(tid);
        w.key("args");
        w.beginObject();
        w.key("name");
        w.value(name);
        w.endObject();
        w.endObject();
    };
    meta("process_name", 1, 1, "simulation");
    meta("thread_name", 1, 1, "page lifecycle");
    meta("process_name", 2, 1, "host");
    meta("thread_name", 2, 1, "simulator phases");

    for (const TraceEvent &ev : evs) {
        const bool phase = ev.kind == EventKind::Phase;
        w.beginObject();
        w.key("name");
        w.value(phase ? (ev.name ? ev.name : "phase")
                      : eventKindName(ev.kind));
        w.key("cat");
        w.value(categoryName(eventCategory(ev.kind)));
        w.key("ph");
        w.value(phase ? "X" : "i");
        // Chrome trace timestamps are microseconds (double).
        w.key("ts");
        w.value(static_cast<double>(ev.time) / 1e3);
        if (phase) {
            w.key("dur");
            w.value(static_cast<double>(ev.value) / 1e3);
        } else {
            w.key("s");
            w.value("t");
        }
        w.key("pid");
        w.value(std::uint64_t{phase ? 2u : 1u});
        w.key("tid");
        w.value(std::uint64_t{1});
        w.key("args");
        w.beginObject();
        if (!phase) {
            w.key("addr");
            w.value(ev.addr);
            w.key("huge");
            w.value(ev.huge);
            w.key("value");
            w.value(ev.value);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
EventTracer::writeFile(const std::string &path,
                       const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        TSTAT_WARN("cannot write %s", path.c_str());
        return false;
    }
    const std::size_t n =
        std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (n != text.size()) {
        TSTAT_WARN("short write to %s", path.c_str());
        return false;
    }
    return true;
}

} // namespace thermostat
