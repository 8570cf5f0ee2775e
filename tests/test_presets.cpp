/**
 * @file
 * Unit tests for the evaluated system-configuration presets.
 */

#include <gtest/gtest.h>

#include "baseline/presets.hh"

using namespace hpim;
using namespace hpim::baseline;

TEST(Presets, Names)
{
    EXPECT_EQ(systemName(SystemKind::CpuOnly), "CPU");
    EXPECT_EQ(systemName(SystemKind::Gpu), "GPU");
    EXPECT_EQ(systemName(SystemKind::ProgrPimOnly), "Progr PIM");
    EXPECT_EQ(systemName(SystemKind::FixedPimOnly), "Fixed PIM");
    EXPECT_EQ(systemName(SystemKind::HeteroPim), "Hetero PIM");
    EXPECT_EQ(systemName(SystemKind::Neurocube), "Neurocube");
}

TEST(Presets, CpuOnlyHasNoPims)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    EXPECT_FALSE(config.hasFixedPim);
    EXPECT_FALSE(config.hasProgrPim);
    EXPECT_FALSE(config.dynamicScheduling);
    // DDR4 host memory.
    EXPECT_DOUBLE_EQ(config.cpu.memBandwidth, 50e9);
}

TEST(Presets, HeteroPimEnablesEverything)
{
    auto config = makeConfig(SystemKind::HeteroPim);
    EXPECT_TRUE(config.hasFixedPim);
    EXPECT_TRUE(config.hasProgrPim);
    EXPECT_TRUE(config.dynamicScheduling);
    EXPECT_TRUE(config.recursiveKernels);
    EXPECT_TRUE(config.operationPipeline);
    EXPECT_EQ(config.fixed.totalUnits, 444u);
    EXPECT_EQ(config.progr.cores, 4u);
    // Host memory is the stack behind serial links.
    EXPECT_DOUBLE_EQ(config.cpu.memBandwidth, 120e9);
    // PIM's premise: inside the stack there is more bandwidth than
    // across its links.
    EXPECT_DOUBLE_EQ(config.internalBandwidth, 320e9);
    EXPECT_GT(config.internalBandwidth, config.cpu.memBandwidth);
}

TEST(Presets, MakeHeteroFlagControl)
{
    auto config = makeHetero(true, false, true);
    EXPECT_TRUE(config.dynamicScheduling);
    EXPECT_FALSE(config.recursiveKernels);
    EXPECT_TRUE(config.operationPipeline);
}

TEST(Presets, FrequencyScalePropagates)
{
    auto config = makeConfig(SystemKind::HeteroPim, 4.0);
    EXPECT_DOUBLE_EQ(config.fixed.frequencyScale, 4.0);
    EXPECT_DOUBLE_EQ(config.progr.frequencyScale, 4.0);
}

TEST(Presets, ProgrScalingTradesFixedUnits)
{
    auto one = makeConfig(SystemKind::HeteroPim, 1.0, 1);
    auto sixteen = makeConfig(SystemKind::HeteroPim, 1.0, 16);
    EXPECT_EQ(one.fixed.totalUnits, 444u);
    EXPECT_LT(sixteen.fixed.totalUnits, 444u);
    EXPECT_EQ(sixteen.progrPimCount, 16u);
}

TEST(Presets, GpuUtilizationsMatchPaperSectionVD)
{
    EXPECT_DOUBLE_EQ(gpuUtilization(nn::ModelId::InceptionV3), 0.62);
    EXPECT_DOUBLE_EQ(gpuUtilization(nn::ModelId::ResNet50), 0.44);
    EXPECT_DOUBLE_EQ(gpuUtilization(nn::ModelId::AlexNet), 0.30);
    EXPECT_DOUBLE_EQ(gpuUtilization(nn::ModelId::Vgg19), 0.63);
    EXPECT_DOUBLE_EQ(gpuUtilization(nn::ModelId::Dcgan), 0.28);
}

TEST(Presets, GpuInputBytesFollowBatchAndGeometry)
{
    // VGG-19: 32 x 224 x 224 x 3 x 4 B.
    EXPECT_DOUBLE_EQ(gpuInputBytes(nn::ModelId::Vgg19),
                     32.0 * 224 * 224 * 3 * 4);
    // ResNet-50 at batch 128 moves 4x the VGG batch bytes.
    EXPECT_DOUBLE_EQ(gpuInputBytes(nn::ModelId::ResNet50),
                     4.0 * gpuInputBytes(nn::ModelId::Vgg19));
}

TEST(Presets, NeurocubeIsProgrammableOnly)
{
    auto config = makeConfig(SystemKind::Neurocube);
    EXPECT_FALSE(config.hasFixedPim);
    EXPECT_TRUE(config.hasProgrPim);
    EXPECT_FALSE(config.dynamicScheduling);
    EXPECT_EQ(config.progr.cores, 16u); // 16 vault-attached PEs
}

TEST(PresetsDeath, GpuConfigThroughSystemConfigIsFatal)
{
    EXPECT_EXIT(makeConfig(SystemKind::Gpu),
                testing::ExitedWithCode(1), "GpuModel");
}

TEST(Presets, RunSystemProducesConsistentReports)
{
    for (auto kind : {SystemKind::CpuOnly, SystemKind::Gpu,
                      SystemKind::HeteroPim}) {
        auto report = runSystem(kind, nn::ModelId::Dcgan, 2);
        EXPECT_GT(report.stepSec, 0.0) << systemName(kind);
        EXPECT_GT(report.energyPerStepJ, 0.0) << systemName(kind);
        EXPECT_EQ(report.configName, systemName(kind));
        EXPECT_EQ(report.workloadName, "DCGAN");
    }
}
