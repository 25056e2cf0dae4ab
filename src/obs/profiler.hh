/**
 * @file
 * Hierarchical phase profiler for the simulator's own hot loops.
 *
 * PhaseScope is an RAII wall-clock timer; nested scopes build a
 * call tree rooted at "run" (epoch -> policy_tick -> migrate, ...),
 * and with an EventTracer also land on its Perfetto host track.
 * Each node tracks invocation count and total host nanoseconds;
 * self time is total minus the children's totals, computed at
 * export.  The JSON export is a nested tree, so a profile answers
 * "where does a run spend its host time" at a glance -- the tool
 * for chasing the ROADMAP's single-run throughput target.
 *
 * Host wall-clock reads are confined to obs/ by the lint rules
 * (ban-wall-clock): simulated results never depend on these
 * timings, so profiling on/off cannot perturb golden runs.
 *
 * Not thread-safe: one Profiler per Simulation, like the tracer.
 * A disabled profiler's scopes cost one branch.
 */

#ifndef THERMOSTAT_OBS_PROFILER_HH
#define THERMOSTAT_OBS_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/event_trace.hh"

namespace thermostat
{

class Profiler
{
  public:
    /** One tree node; index 0 is the root ("run"). */
    struct Node
    {
        std::string name;
        int parent = -1;
        std::vector<int> children;
        std::uint64_t count = 0;
        Ns totalNs = 0;
        /** Added by record(): overlaps the parent's interval. */
        bool concurrent = false;
    };

    explicit Profiler(bool enabled = true);

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /**
     * Enter the child named @p name of the current node (created on
     * first use); returns a token for leave().  The name pointer
     * must outlive the profiler (static literals).
     */
    int enter(const char *name);
    void leave(int node, Ns elapsed);

    /**
     * Add @p value to the child named @p name of the current node
     * without timing it: host time that other threads (lane
     * workers) spent while the current node ran.  Such a child
     * overlaps its parent's own interval, so childrenTotal() and
     * selfNs() leave it out, and exports mark it concurrent.
     */
    void record(const char *name, Ns value);

    /** Host ns since profiler construction (monotonic). */
    Ns now() const;

    // -- Read side -------------------------------------------------------

    const std::vector<Node> &nodes() const { return nodes_; }
    const Node &root() const { return nodes_[0]; }

    /** Sum of @p node's direct, non-concurrent children's totals. */
    Ns childrenTotal(const Node &node) const;

    /** Total minus children (never negative). */
    Ns selfNs(const Node &node) const;

    /**
     * Nested JSON: {"name","count","total_ns","self_ns",
     * "children":[...]}.  Children appear in first-entry order.
     */
    std::string toJson() const;

    /** Indented "name  count  total  self" lines for consoles. */
    std::string toText() const;

    /** Drop all samples, keep the tree shape reset to just root. */
    void clear();

  private:
    int findOrAddChild(int parent, const char *name);
    void writeNode(int index, std::string &out, int depth) const;

    bool enabled_;
    std::vector<Node> nodes_;
    int current_ = 0;
    std::chrono::steady_clock::time_point epoch_;
};

/**
 * RAII phase scope: times one phase into @p profiler's tree (unless
 * null or disabled) and, given a @p tracer, emits it as a Phase
 * event; the sys daemons pass no tracer and add no events.
 */
class PhaseScope
{
  public:
    PhaseScope(Profiler *profiler, const char *name,
               EventTracer *tracer = nullptr)
        : profiler_(profiler != nullptr && profiler->enabled()
                        ? profiler
                        : nullptr),
          tracer_(tracer), name_(name),
          node_(profiler_ != nullptr ? profiler_->enter(name) : 0),
          begin_(now())
    {
    }

    ~PhaseScope()
    {
        const Ns elapsed = now() - begin_;
        if (profiler_ != nullptr) {
            profiler_->leave(node_, elapsed);
        }
        if (tracer_ != nullptr) {
            tracer_->emit({begin_, EventKind::Phase, false, 0, elapsed,
                           name_});
        }
    }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    /** The tracer's clock (Phase events use it), else the profiler's. */
    Ns
    now() const
    {
        return tracer_ != nullptr     ? tracer_->hostNow()
               : profiler_ != nullptr ? profiler_->now()
                                      : 0;
    }

    Profiler *profiler_;
    EventTracer *tracer_;
    const char *name_;
    int node_ = 0;
    Ns begin_ = 0;
};

} // namespace thermostat

#endif // THERMOSTAT_OBS_PROFILER_HH
