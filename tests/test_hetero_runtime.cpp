/**
 * @file
 * Unit tests for the runtime facade: profiling integration, co-run
 * and the sequential baseline.
 */

#include <gtest/gtest.h>

#include "baseline/presets.hh"
#include "nn/models.hh"
#include "rt/hetero_runtime.hh"

using namespace hpim;
using namespace hpim::rt;
using baseline::makeConfig;
using baseline::SystemKind;

TEST(HeteroRuntime, TrainProfilesWhenSchedulingEnabled)
{
    auto config = makeConfig(SystemKind::HeteroPim);
    config.steps = 2;
    HeteroRuntime runtime(config);
    auto result = runtime.train(nn::buildDcgan());
    ASSERT_NE(result.profile, nullptr);
    ASSERT_NE(result.selection, nullptr);
    EXPECT_FALSE(result.profile->byType.empty());
    EXPECT_FALSE(result.selection->candidates.empty());
    EXPECT_GE(result.selection->coveredTimePct,
              config.offloadCoveragePct);
    EXPECT_GT(result.execution.stepSec, 0.0);
}

TEST(HeteroRuntime, NoProfilingForStaticBaselines)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    config.steps = 1;
    HeteroRuntime runtime(config);
    auto result = runtime.train(nn::buildDcgan());
    EXPECT_EQ(result.profile, nullptr);
    EXPECT_EQ(result.selection, nullptr);
}

TEST(HeteroRuntime, PrepareHitsShareTheMemoizedProfile)
{
    // The second train hits rt.prepared and gets the cached objects,
    // not copies of them.
    auto config = makeConfig(SystemKind::HeteroPim);
    config.steps = 1;
    HeteroRuntime runtime(config);
    const nn::Graph graph = nn::buildDcgan();
    auto first = runtime.train(graph);
    auto second = runtime.train(graph);
    ASSERT_NE(first.profile, nullptr);
    ASSERT_NE(first.selection, nullptr);
    EXPECT_EQ(second.profile.get(), first.profile.get());
    EXPECT_EQ(second.selection.get(), first.selection.get());
}

TEST(HeteroRuntime, StepsOverrideHonored)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    config.steps = 4;
    HeteroRuntime runtime(config);
    auto result = runtime.train(nn::buildDcgan(), 2);
    EXPECT_EQ(result.execution.stepsSimulated, 2u);
}

TEST(HeteroRuntime, CorunBeatsSequential)
{
    // The Fig. 16 headline: co-running a CNN with a guest model beats
    // running them back to back.
    auto config = makeConfig(SystemKind::HeteroPim);
    config.steps = 2;
    HeteroRuntime runtime(config);
    auto primary = nn::buildAlexNet();
    auto guest = nn::buildLstm();
    auto seq = runtime.corunSequential(primary, guest);
    auto co = runtime.corun(primary, guest);
    EXPECT_LT(co.execution.makespanSec, seq.execution.makespanSec);
}

TEST(HeteroRuntime, GuestStepsBalanceAgainstPrimary)
{
    auto config = makeConfig(SystemKind::HeteroPim);
    config.steps = 2;
    HeteroRuntime runtime(config);
    auto primary = nn::buildVgg19();
    auto guest = nn::buildWord2vec();
    // The word2vec step is tiny: many steps fit one VGG step.
    EXPECT_GT(runtime.guestSteps(primary, guest, 2), 10u);
    // A guest as big as the primary runs about the same step count.
    EXPECT_EQ(runtime.guestSteps(primary, primary, 2), 2u);
}

TEST(HeteroRuntime, SequentialReportAggregatesBothPhases)
{
    auto config = makeConfig(SystemKind::HeteroPim);
    config.steps = 2;
    HeteroRuntime runtime(config);
    auto primary = nn::buildDcgan();
    auto guest = nn::buildWord2vec();
    auto solo = runtime.train(primary).execution;
    auto seq = runtime.corunSequential(primary, guest).execution;
    EXPECT_GT(seq.makespanSec, solo.makespanSec);
    EXPECT_GT(seq.totalEnergyJ, solo.totalEnergyJ);
}

TEST(HeteroRuntime, FrequencyScaledConfigSpeedsUp)
{
    auto base = makeConfig(SystemKind::HeteroPim);
    base.steps = 2;
    auto fast = base.withFrequencyScale(2.0);
    auto graph = nn::buildAlexNet();
    auto slow_t = HeteroRuntime(base).train(graph).execution.stepSec;
    auto fast_t = HeteroRuntime(fast).train(graph).execution.stepSec;
    EXPECT_LT(fast_t, slow_t);
}
