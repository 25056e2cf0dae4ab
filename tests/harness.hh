/**
 * @file
 * Shared test harness: the small deterministic workloads, simulation
 * configs and filesystem helpers that the integration-level suites
 * (simulation, golden runs, invariants, migration) would otherwise
 * each re-declare.
 *
 * Everything here is deliberately tiny: a 64MB footprint simulates a
 * minute of run time in well under a second, which is what makes the
 * seed-sweep and golden-run suites affordable under ctest.
 */

#ifndef THERMOSTAT_TESTS_HARNESS_HH
#define THERMOSTAT_TESTS_HARNESS_HH

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/simulation.hh"
#include "workload/workload.hh"

namespace thermostat::test
{

/**
 * 64MB footprint: half blazing hot, half untouched.  The canonical
 * workload for engine-behaviour tests -- the untouched half is what
 * Thermostat should find and place in slow memory.
 */
inline std::unique_ptr<ComposedWorkload>
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

/**
 * 64MB footprint with a moving, write-heavy working set: a read-only
 * 16MB hot window that jumps 16MB every 5s, and a write-only 4MB
 * window that jumps 4MB every 3s.  The reader makes nomad
 * promote read-mostly pages with a retained replica; the writer
 * later lands on those replicas (dropping them) and on pages whose
 * demotion transaction is still open (aborting it).
 */
inline std::unique_ptr<ComposedWorkload>
writeHeavyWorkload()
{
    auto w = std::make_unique<ComposedWorkload>(
        "write-heavy", 200.0e3, 0.8, 300 * kNsPerSec);
    w->addRegion({"data", 64_MiB, 0, true, false});
    TrafficComponent reader;
    reader.region = "data";
    reader.weight = 0.3;
    reader.writeFraction = 0.0;
    reader.pattern = std::make_unique<PhaseShiftPattern>(
        std::make_unique<UniformPattern>(16_MiB), 5 * kNsPerSec,
        16_MiB, 64_MiB);
    w->addComponent(std::move(reader));
    TrafficComponent writer;
    writer.region = "data";
    writer.weight = 0.7;
    writer.writeFraction = 1.0;
    writer.pattern = std::make_unique<PhaseShiftPattern>(
        std::make_unique<UniformPattern>(4_MiB), 3 * kNsPerSec,
        4_MiB, 64_MiB);
    w->addComponent(std::move(writer));
    return w;
}

/**
 * Small two-tier machine sized for halfColdWorkload(): 256MB per
 * tier, 1MB LLC, an aggressive 25% sample fraction so placement
 * converges within a few simulated minutes.
 */
inline SimConfig
tinySimConfig(std::uint64_t seed = 7)
{
    SimConfig config;
    config.seed = seed;
    config.samplesPerEpoch = 4000;
    config.profileWeight = 5;
    config.machine.fastTier = TierConfig::dram(256_MiB);
    config.machine.slowTier = TierConfig::slow(256_MiB);
    config.machine.llc.sizeBytes = 1_MiB;
    config.params.sampleFraction = 0.25;
    config.duration = 150 * kNsPerSec;
    return config;
}

/** Whole-file slurp; empty string when the file cannot be read. */
inline std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Write @p text to @p path, creating parent directories. */
inline bool
spillFile(const std::string &path, const std::string &text)
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
}

/** RAII temporary directory under the system temp root. */
class TempDir
{
  public:
    TempDir()
    {
        std::string templ =
            (std::filesystem::temp_directory_path() / "tstat_test_XXXXXX")
                .string();
        if (::mkdtemp(templ.data()) == nullptr) {
            std::perror("mkdtemp");
            std::abort();
        }
        path_ = templ;
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

    std::string
    file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

} // namespace thermostat::test

#endif // THERMOSTAT_TESTS_HARNESS_HH
