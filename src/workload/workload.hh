/**
 * @file
 * Workload abstraction: an application generating a stream of memory
 * references against its address space.
 *
 * A Workload owns (i) a set of address-space regions it creates at
 * setup (matching the resident-set and file-mapped footprints of
 * Table 2), (ii) a mixture of traffic components, each directing a
 * share of references at one region through an AccessPattern, and
 * (iii) optional footprint growth over time (Cassandra memtables,
 * Spark heap).
 *
 * Like an AccessPattern, a Workload draws each reference in two
 * steps: a serial draw() that consumes the stream's Rng into a
 * compact RefDraw token, and a pure `const` resolve() that turns a
 * block of tokens into MemRefs and may run on any thread.
 */

#ifndef THERMOSTAT_WORKLOAD_WORKLOAD_HH
#define THERMOSTAT_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "vm/address_space.hh"
#include "workload/access_pattern.hh"

namespace thermostat
{

/**
 * One operation-level memory reference: an access to `addr` followed
 * by `burstLines - 1` further line accesses on the same page (an
 * object read/write touches several cache lines but costs one TLB
 * event).  Rates throughout are in bursts (TLB-event-equivalents)
 * per second, matching the unit of the paper's poison-fault counters
 * and of its 30K accesses/sec budget arithmetic.
 */
struct MemRef
{
    Addr addr = 0;
    AccessType type = AccessType::Read;
    unsigned burstLines = 1;
};

/**
 * One reference as drawn, before it is resolved: the traffic
 * component it picked, its write bit, and that component's
 * PatternDraw (`value`, `within`, `choice`).  Trace workloads keep a
 * whole MemRef here (address in `value`, burst length in `within`).
 */
struct RefDraw
{
    std::uint64_t value = 0;
    std::uint32_t within = 0;
    std::uint16_t component = 0;
    std::uint8_t choice = 0;
    bool write = false;
};

/** A region the workload maps at setup. */
struct RegionSpec
{
    std::string name;
    std::uint64_t bytes = 0;
    std::uint64_t reserveBytes = 0; //!< 0 means bytes
    bool thp = true;
    bool fileBacked = false;
};

/** Linear growth of one region over time. */
struct GrowthSpec
{
    std::string region;
    double bytesPerSec = 0.0;
};

/**
 * Ground-truth access rate of one region (bursts/sec), summed over
 * the traffic components targeting it.  Only the simulator can know
 * this; the oracle policy reads it as its placement input.
 */
struct RegionRate
{
    std::string region;
    double accessesPerSec = 0.0;
};

/** One traffic component of the mixture. */
struct TrafficComponent
{
    std::string region;
    double weight = 1.0;         //!< share of total references
    double writeFraction = 0.1;  //!< P(reference is a write)
    unsigned burstLines = 4;     //!< lines touched per operation
    std::unique_ptr<AccessPattern> pattern;
    bool trackGrowth = false;    //!< span follows region growth
};

/**
 * Abstract workload interface consumed by the simulation driver.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const std::string &name() const = 0;

    /** Create regions; called once before the run. */
    virtual void setup(AddressSpace &space) = 0;

    /** Epoch boundary hook: growth and phase changes. */
    virtual void advance(Ns now, AddressSpace &space) = 0;

    /**
     * The serial step: draws tokens.size() references in order,
     * consuming @p rng and advancing pattern cursors exactly as that
     * many sample() calls would.  Only the thread that owns @p rng
     * calls it.
     */
    virtual void draw(Rng &rng, std::span<RefDraw> tokens) = 0;

    /**
     * The pure step: refs[i] is the reference tokens[i] stands for;
     * the spans have equal sizes.  Safe to call from several threads
     * at once, between two advance() calls.
     */
    virtual void resolve(std::span<const RefDraw> tokens,
                         std::span<MemRef> refs) const = 0;

    /** Draw one memory reference and resolve it at once. */
    MemRef
    sample(Rng &rng)
    {
        RefDraw token;
        draw(rng, {&token, 1});
        MemRef ref;
        resolve({&token, 1}, {&ref, 1});
        return ref;
    }

    /** Burst references (TLB-event-equivalents) per second. */
    virtual double memRefRate() const = 0;

    /**
     * CPU (non-memory) time per second of baseline execution, as a
     * fraction of wall time in [0, 1).
     */
    virtual double cpuWorkFraction() const = 0;

    /** Nominal run length used by the paper's figures. */
    virtual Ns naturalDuration() const { return 1200 * kNsPerSec; }

    /**
     * True per-region access rates, when the workload can expose
     * them (oracle policies).  Default: unknown.
     */
    virtual std::vector<RegionRate> regionRates() const { return {}; }
};

/**
 * A concrete workload assembled from region specs, growth specs and
 * traffic components; all six cloud applications are instances
 * (see cloud_apps.hh).
 */
class ComposedWorkload : public Workload
{
  public:
    ComposedWorkload(std::string name, double mem_ref_rate,
                     double cpu_work_fraction, Ns natural_duration);

    /** Builder API (call before setup()). */
    void addRegion(const RegionSpec &spec);
    void addGrowth(const GrowthSpec &spec);
    void addComponent(TrafficComponent component);

    const std::string &name() const override { return name_; }
    void setup(AddressSpace &space) override;
    void advance(Ns now, AddressSpace &space) override;
    void draw(Rng &rng, std::span<RefDraw> tokens) override;
    /** Resolves each component's tokens as one pattern block. */
    void resolve(std::span<const RefDraw> tokens,
                 std::span<MemRef> refs) const override;
    double memRefRate() const override { return memRefRate_; }
    double cpuWorkFraction() const override { return cpuWorkFraction_; }
    Ns naturalDuration() const override { return naturalDuration_; }

    /** Total configured initial footprint (for Table 2). */
    std::uint64_t initialRssBytes() const;
    std::uint64_t initialFileBytes() const;

    std::vector<RegionRate> regionRates() const override;

  private:
    /** Most traffic components a workload may have. */
    static constexpr std::size_t kMaxComponents = 256;

    struct BoundComponent
    {
        TrafficComponent spec;
        Addr regionBase = 0;
        std::size_t regionIndex = 0;
        double cumulativeWeight = 0.0;
    };

    // Between setup() and the end of the run, only advance() writes
    // any of this, never inside a reference stream: a stream's draws
    // and resolves all see the same spans, phases and mappedBytes.
    /** Tokens resolve() groups by component at a time. */
    static constexpr std::size_t kResolveBatch = 256;

    /** resolve() of at most kResolveBatch tokens. */
    void resolveBatch(std::span<const RefDraw> batch,
                      std::span<MemRef> refs) const;

    std::string name_;                       // shard: read-only
    double memRefRate_;                      // shard: read-only
    double cpuWorkFraction_;                 // shard: read-only
    Ns naturalDuration_;                     // shard: read-only
    std::vector<RegionSpec> regionSpecs_;    // shard: read-only
    std::vector<GrowthSpec> growthSpecs_;    // shard: read-only
    std::vector<BoundComponent> components_; // shard: read-only
    double totalWeight_ = 0.0;               // shard: read-only
    AddressSpace *space_ = nullptr;          // shard: read-only
    Ns lastAdvance_ = 0;              // shard: serial-only (advance)
    std::vector<double> growthCarry_; // shard: serial-only (advance)
};

} // namespace thermostat

#endif // THERMOSTAT_WORKLOAD_WORKLOAD_HH
