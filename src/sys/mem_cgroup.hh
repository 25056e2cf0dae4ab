/**
 * @file
 * Memory-cgroup style runtime control surface for Thermostat.
 *
 * The paper controls Thermostat via the Linux memory cgroup: "All
 * processes in the same cgroup share Thermostat parameters, such as
 * the sampling period and maximum tolerable slowdown" (Sec 3.1), and
 * the slowdown threshold "can be changed at runtime through the
 * Linux cgroup mechanism" (Sec 5).
 */

#ifndef THERMOSTAT_SYS_MEM_CGROUP_HH
#define THERMOSTAT_SYS_MEM_CGROUP_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace thermostat
{

/** Tunable Thermostat parameters, shared by a control group. */
struct ThermostatParams
{
    /**
     * Maximum tolerable slowdown in percent; the single input
     * parameter a system administrator specifies (Sec 5).
     */
    double tolerableSlowdownPct = 3.0;

    /**
     * Assumed slow-memory access latency ts used in the
     * slowdown-to-rate translation (Sec 3.4); 1us in the paper.
     */
    Ns slowMemLatency = 1000;

    /** Fraction of huge pages sampled per period (5%). */
    double sampleFraction = 0.05;

    /** Max poisoned 4KB pages per sampled huge page (K = 50). */
    unsigned poisonBudget = 50;

    /** Length of one full sampling period (30s). */
    Ns samplingPeriod = 30 * kNsPerSec;

    /**
     * Enable the mis-classification corrector (Sec 3.5).  Exposed
     * so its contribution can be ablated; always on in the paper.
     */
    bool correctionEnabled = true;

    /**
     * Future-work extension (paper Sec 6, "Spreading a 2MB page
     * across fast and slow memories"): when a sampled huge page is
     * too hot to place wholesale but its hot footprint is confined
     * to at most spreadMaxHotSubpages 4KB subpages, keep it split,
     * pin the hot subpages in fast memory and demote the rest.
     * Trades that page's TLB reach for fast-memory capacity; off by
     * default, evaluated by bench/abl_spread_pages.
     */
    bool spreadHugePages = false;
    unsigned spreadMaxHotSubpages = 64;

    /**
     * Target aggregate access rate (accesses/sec) to slow memory:
     * x / (100 * ts).  3% and 1us give the paper's 30K accesses/sec.
     */
    double
    targetSlowAccessRate() const
    {
        return tolerableSlowdownPct /
               (100.0 * static_cast<double>(slowMemLatency) /
                static_cast<double>(kNsPerSec));
    }
};

/**
 * A control group binding a name to shared parameters.  Runtime
 * writes (e.g. raising the tolerable slowdown mid-run, as the
 * Figure 11 sweep does) take effect at the next sampling period.
 */
class MemCgroup
{
  public:
    explicit MemCgroup(std::string name,
                       const ThermostatParams &params = {})
        : name_(std::move(name)), params_(params)
    {
    }

    const std::string &name() const { return name_; }
    const ThermostatParams &params() const { return params_; }

    /** cgroup-file style setter (the paper's runtime knob, Sec 5). */
    void
    setTolerableSlowdownPct(double pct)
    {
        params_.tolerableSlowdownPct = pct;
    }

  private:
    std::string name_;
    ThermostatParams params_;
};

} // namespace thermostat

#endif // THERMOSTAT_SYS_MEM_CGROUP_HH
