/**
 * @file
 * Tests for the memory-cgroup control surface (paper Sec 3.1/5:
 * Thermostat parameters live in a cgroup and can change at runtime).
 */

#include <gtest/gtest.h>

#include "sys/mem_cgroup.hh"

namespace thermostat
{
namespace
{

TEST(ThermostatParams, PaperDefaults)
{
    const ThermostatParams params;
    EXPECT_DOUBLE_EQ(params.tolerableSlowdownPct, 3.0);
    EXPECT_EQ(params.slowMemLatency, 1000u);
    EXPECT_DOUBLE_EQ(params.sampleFraction, 0.05);
    EXPECT_EQ(params.poisonBudget, 50u);
    EXPECT_EQ(params.samplingPeriod, 30 * kNsPerSec);
    EXPECT_TRUE(params.correctionEnabled);
    EXPECT_FALSE(params.spreadHugePages);
}

TEST(ThermostatParams, TargetRateArithmetic)
{
    ThermostatParams params;
    EXPECT_NEAR(params.targetSlowAccessRate(), 30000.0, 1e-9);
    params.tolerableSlowdownPct = 10.0;
    EXPECT_NEAR(params.targetSlowAccessRate(), 100000.0, 1e-9);
    params.slowMemLatency = 400;
    EXPECT_NEAR(params.targetSlowAccessRate(), 250000.0, 1e-9);
}

TEST(MemCgroup, SettersTakeEffect)
{
    MemCgroup cgroup("vm-1");
    EXPECT_EQ(cgroup.name(), "vm-1");
    cgroup.setTolerableSlowdownPct(6.0);
    EXPECT_DOUBLE_EQ(cgroup.params().tolerableSlowdownPct, 6.0);
}

TEST(MemCgroup, ConstructedWithCustomParams)
{
    ThermostatParams params;
    params.tolerableSlowdownPct = 1.0;
    params.spreadHugePages = true;
    MemCgroup cgroup("vm-2", params);
    EXPECT_DOUBLE_EQ(cgroup.params().tolerableSlowdownPct, 1.0);
    EXPECT_TRUE(cgroup.params().spreadHugePages);
}

} // namespace
} // namespace thermostat
