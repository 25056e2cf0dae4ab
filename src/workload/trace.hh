/**
 * @file
 * Reference-trace capture and replay.
 *
 * RecordingWorkload wraps any Workload and logs the reference
 * stream it produces; TraceWorkload replays a saved trace file.
 * Region layout, rates and CPU fraction are stored in the trace
 * header, so a replayed run maps the identical address space and
 * the recorded absolute addresses stay valid (region base
 * assignment is deterministic).
 *
 * Uses: capturing a production-like stream once and sweeping
 * Thermostat parameters over it, or importing externally generated
 * traces by writing the simple binary format.
 */

#ifndef THERMOSTAT_WORKLOAD_TRACE_HH
#define THERMOSTAT_WORKLOAD_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace thermostat
{

/** One recorded reference (packed for compact trace files). */
struct TraceEntry
{
    Addr addr = 0;
    std::uint16_t burstLines = 1;
    std::uint8_t isWrite = 0;
    std::uint8_t pad = 0;
};

static_assert(sizeof(TraceEntry) == 12 || sizeof(TraceEntry) == 16,
              "TraceEntry should stay compact");

/**
 * Decorator: behaves exactly like the wrapped workload while
 * logging every drawn reference.  Its draw() resolves the reference
 * at once, to log it in draw order, so its resolve() is the
 * identity.
 */
class RecordingWorkload : public Workload
{
  public:
    explicit RecordingWorkload(std::unique_ptr<Workload> inner);

    const std::string &name() const override;
    void setup(AddressSpace &space) override;
    void advance(Ns now, AddressSpace &space) override;
    void draw(Rng &rng, std::span<RefDraw> tokens) override;
    void resolve(std::span<const RefDraw> tokens,
                 std::span<MemRef> refs) const override;
    double memRefRate() const override;
    double cpuWorkFraction() const override;
    Ns naturalDuration() const override;

    /** References recorded so far. */
    std::size_t recordedCount() const { return entries_.size(); }

    /**
     * Write the trace (header with region specs + entries) to
     * @p path.
     * @return false on I/O failure.
     */
    bool save(const std::string &path) const;

  private:
    std::unique_ptr<Workload> inner_;
    std::vector<RegionSpec> regions_;
    std::vector<TraceEntry> entries_;
};

/**
 * Replays a saved trace: maps the recorded regions and serves the
 * recorded references in order, wrapping at the end.  The whole
 * reference is read in draw(); resolve() is the identity.
 */
class TraceWorkload : public Workload
{
  public:
    /**
     * Load a trace file; nullptr on parse/I/O failure.  When
     * @p error is non-null it receives a caller-printable
     * diagnostic naming the path and, for I/O failures, the errno.
     */
    static std::unique_ptr<TraceWorkload>
    load(const std::string &path, std::string *error = nullptr);

    const std::string &name() const override { return name_; }
    void setup(AddressSpace &space) override;
    void advance(Ns now, AddressSpace &space) override;
    void draw(Rng &rng, std::span<RefDraw> tokens) override;
    void resolve(std::span<const RefDraw> tokens,
                 std::span<MemRef> refs) const override;
    double memRefRate() const override { return memRefRate_; }
    double cpuWorkFraction() const override
    {
        return cpuWorkFraction_;
    }
    Ns naturalDuration() const override { return naturalDuration_; }

    std::size_t entryCount() const { return entries_.size(); }
    const std::vector<RegionSpec> &regions() const
    {
        return regions_;
    }

  private:
    TraceWorkload() = default;

    std::string name_;
    double memRefRate_ = 0.0;
    double cpuWorkFraction_ = 0.0;
    Ns naturalDuration_ = 0;
    std::vector<RegionSpec> regions_;
    std::vector<TraceEntry> entries_;
    std::size_t cursor_ = 0;
};

} // namespace thermostat

#endif // THERMOSTAT_WORKLOAD_TRACE_HH
