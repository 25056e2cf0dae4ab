/**
 * @file
 * Structured page-lifecycle event tracing.
 *
 * The EventTracer is a bounded ring buffer of timestamped events
 * covering the full Thermostat page lifecycle (sampled -> split ->
 * poisoned -> classified -> demoted/promoted -> corrected), fed by
 * the engine, the migrator, BadgerTrap and khugepaged.  Exporters
 * render the ring as JSONL (one event per line, jq-friendly) or as
 * Chrome trace-event JSON loadable in Perfetto / chrome://tracing.
 *
 * Two timelines coexist: lifecycle events carry *simulated*
 * nanoseconds (track "simulation"), while PhaseScope phase timings
 * carry *host wall-clock* nanoseconds since tracer creation (track
 * "host"), making the simulator's own hot loops profilable.
 *
 * An optional sink observes every event before masking/ring
 * overwrite; the lifecycle auditor subscribes there so its checks
 * see the complete stream regardless of ring capacity or mask.
 */

#ifndef THERMOSTAT_OBS_EVENT_TRACE_HH
#define THERMOSTAT_OBS_EVENT_TRACE_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace thermostat
{

class MetricRegistry;

/** What happened to a page (or which engine phase ran). */
enum class EventKind : std::uint8_t
{
    PageSampled,    //!< chosen for this period's profiling sample
    PageSplit,      //!< huge page split into 4KB mappings
    PagePoisoned,   //!< PTE poisoned for software access counting
    PageUnpoisoned, //!< poison removed
    ClassifiedHot,  //!< profiling verdict: keep in fast memory
    ClassifiedCold, //!< profiling verdict: move to slow memory
    PageCollapsed,  //!< split range recovered into a huge page
    CollapseFailed, //!< collapse attempt failed
    PageDemoted,    //!< migrated fast -> slow (value = bytes)
    PagePromoted,   //!< migrated slow -> fast (value = bytes)
    Corrected,      //!< promotion ordered by the misclassification
                    //!< corrector (paper Sec 3.5)
    PageSpread,     //!< Sec 6 extension: hot page left split, cold
                    //!< subpages demoted (value = subpages demoted)
    MigrationFailed, //!< target tier full
    MigrationThrottled, //!< host arbiter denied admission
                        //!< (value = bytes not moved)
    // Explicit so that every kind from here on keeps its number
    // (14-18 are unused): the golden lifecycle digests hash each
    // event's numeric kind.
    PolicyDemote = 19, //!< tiering policy ordered a demotion
    PolicyPromote,  //!< tiering policy ordered a promotion
    TransactionStarted,   //!< shadow copy opened; page resident in
                          //!< both tiers (value = bytes)
    TransactionCommitted, //!< revalidation clean, move landed
                          //!< (value = bytes)
    TransactionAborted,   //!< dirty revalidation; rolled back
                          //!< (value = bytes discarded)
    ReplicaRetained, //!< slow-tier copy kept after a clean
                     //!< promotion commit (value = bytes)
    ReplicaDropped,  //!< replica invalidated by a write or spent
                     //!< by a shadow-free demotion (value = bytes)
    QueueRejected,   //!< bounded migration queue was full
                     //!< (value = bytes not queued)
    Phase           //!< PhaseScope host-time phase (value = wall ns)
};

/** Category bit for one kind (mask filtering / Chrome "cat"). */
enum EventCategory : std::uint32_t
{
    kEvSample = 1u << 0,   //!< PageSampled, PageSplit
    kEvPoison = 1u << 1,   //!< PagePoisoned, PageUnpoisoned
    kEvClassify = 1u << 2, //!< Classified*, PageCollapsed,
                           //!< CollapseFailed
    kEvMigrate = 1u << 3,  //!< PageDemoted/Promoted, PageSpread,
                           //!< Migration*, Transaction*, Replica*,
                           //!< QueueRejected
    kEvCorrect = 1u << 4,  //!< Corrected
    kEvPhase = 1u << 5,    //!< Phase
    kEvPolicy = 1u << 7,   //!< PolicyDemote, PolicyPromote
    kEvAll = 0xffffffffu
};

const char *eventKindName(EventKind kind);
EventCategory eventCategory(EventKind kind);

/**
 * Parse a comma-separated category list ("sample,migrate,phase" or
 * "all") into a mask; returns false on an unknown token.
 */
bool parseEventMask(const std::string &spec, std::uint32_t *mask_out);

/** One trace record (fixed-size; strings are static literals). */
struct TraceEvent
{
    Ns time = 0;        //!< simulated ns (Phase: host wall ns)
    EventKind kind = EventKind::PageSampled;
    bool huge = false;
    Addr addr = 0;
    std::uint64_t value = 0; //!< kind-specific payload
    const char *name = nullptr; //!< phase label (Phase events only)
};

/**
 * The bounded ring of events plus exporters.
 */
class EventTracer
{
  public:
    using Sink = std::function<void(const TraceEvent &)>;

    explicit EventTracer(std::size_t capacity = 1u << 16);

    /**
     * Ambient simulated clock for emitters whose APIs carry no
     * timestamp (e.g. BadgerTrap::poison); the engine and the
     * simulation keep it current at each tick.
     */
    void setSimTime(Ns now) { simTime_ = now; }
    Ns simTime() const { return simTime_; }

    /** Record recording filter; the sink is not affected. */
    void setMask(std::uint32_t mask) { mask_ = mask; }
    std::uint32_t mask() const { return mask_; }

    /** Observer of the full (unmasked, unbounded) stream. */
    void setSink(Sink sink) { sink_ = std::move(sink); }

    void emit(const TraceEvent &event);

    /** Convenience for lifecycle events (simulated time). */
    void
    record(EventKind kind, Ns now, Addr addr, bool huge = false,
           std::uint64_t value = 0)
    {
        emit({now, kind, huge, addr, value, nullptr});
    }

    std::size_t capacity() const { return buffer_.size(); }
    std::size_t size() const { return count_; }
    /** Events lost to ring overwrite (masked events don't count). */
    std::uint64_t dropped() const { return dropped_; }
    /** Events offered to emit(), masked or not. */
    std::uint64_t totalEmitted() const { return totalEmitted_; }

    /**
     * Register "trace/emitted_events" and "trace/dropped_events"
     * so ring overflow is visible in every metrics dump (a nonzero
     * drop count means the *export* is incomplete; sink consumers
     * like the LifecycleAuditor still saw every event).
     */
    void registerMetrics(MetricRegistry &registry) const;

    /** Ring contents, oldest first. */
    std::vector<TraceEvent> events() const;

    void clear();

    /** Host wall-clock ns since tracer construction (Phase track). */
    Ns hostNow() const;

    /** One JSON object per line, raw field dump. */
    std::string toJsonl() const;

    /**
     * Chrome trace-event JSON (Perfetto-loadable): lifecycle events
     * as instants on pid 1 "simulation", Phase events as complete
     * (ph "X") slices on pid 2 "host".  Events are sorted by
     * timestamp within each track.
     */
    std::string toChromeTrace() const;

    /** Write @p text to @p path; warns and returns false on error. */
    static bool writeFile(const std::string &path,
                          const std::string &text);

  private:
    std::vector<TraceEvent> buffer_;
    std::size_t head_ = 0;  //!< next write position
    std::size_t count_ = 0; //!< valid entries
    std::uint64_t dropped_ = 0;
    bool overflowWarned_ = false;
    std::uint64_t totalEmitted_ = 0;
    std::uint32_t mask_ = kEvAll;
    Ns simTime_ = 0;
    Sink sink_;
    std::chrono::steady_clock::time_point hostEpoch_;
};

} // namespace thermostat

#endif // THERMOSTAT_OBS_EVENT_TRACE_HH
