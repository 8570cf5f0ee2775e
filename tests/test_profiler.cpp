/**
 * @file
 * Unit tests for the step-1 profiler (paper SectionIII-C step 1).
 */

#include <gtest/gtest.h>

#include "cpu/cpu_model.hh"
#include "nn/models.hh"
#include "rt/profiler.hh"

using namespace hpim;
using rt::Profiler;

namespace {

Profiler
profiler()
{
    return Profiler(cpu::CpuModel{});
}

} // namespace

TEST(Profiler, PerOpEntriesMatchGraph)
{
    // Every op lands in exactly one type row, and every row has work.
    auto graph = nn::buildAlexNet();
    auto report = profiler().profile(graph);
    std::size_t invocations = 0;
    for (const auto &t : report.byType) {
        invocations += t.invocations;
        EXPECT_GT(t.timeSec, 0.0) << nn::opName(t.type);
        EXPECT_GE(t.accesses, 0.0) << nn::opName(t.type);
    }
    EXPECT_EQ(invocations, graph.size());
}

TEST(Profiler, TotalsAreSums)
{
    // The totals are the graph-order sums of the CPU model's per-op
    // numbers, to the bit: the Table I percentages divide by them.
    const cpu::CpuModel cpu;
    for (auto model : {nn::ModelId::Dcgan, nn::ModelId::Vgg19}) {
        auto graph = nn::buildModel(model);
        auto report = profiler().profile(graph);
        double time = 0.0, accesses = 0.0;
        for (const auto &op : graph.ops()) {
            time += cpu.opSeconds(op.cost);
            accesses += cpu.mainMemoryAccesses(op.cost);
        }
        EXPECT_EQ(report.totalTimeSec, time) << nn::modelName(model);
        EXPECT_EQ(report.totalAccesses, accesses)
            << nn::modelName(model);
    }
}

TEST(Profiler, TypeAggregationCountsInvocations)
{
    auto graph = nn::buildVgg19();
    auto report = profiler().profile(graph);
    for (const auto &t : report.byType) {
        EXPECT_EQ(t.invocations, graph.countType(t.type))
            << nn::opName(t.type);
    }
}

TEST(Profiler, PercentagesSumToHundred)
{
    auto graph = nn::buildVgg19();
    auto report = profiler().profile(graph);
    double time_pct = 0.0, access_pct = 0.0;
    for (const auto &t : report.byType) {
        time_pct += t.timePct;
        access_pct += t.accessPct;
    }
    EXPECT_NEAR(time_pct, 100.0, 1e-6);
    EXPECT_NEAR(access_pct, 100.0, 1e-6);
}

TEST(Profiler, TopByTimeIsSortedDescending)
{
    auto report = profiler().profile(nn::buildVgg19());
    auto sorted = report.topByTime();
    for (std::size_t i = 1; i < sorted.size(); ++i)
        EXPECT_GE(sorted[i - 1].timeSec, sorted[i].timeSec);
    auto by_access = report.topByAccesses();
    for (std::size_t i = 1; i < by_access.size(); ++i)
        EXPECT_GE(by_access[i - 1].accesses, by_access[i].accesses);
}

TEST(Profiler, Vgg19TopOpsMatchPaperTableOne)
{
    // Paper Table I: the top-5 CI ops of VGG-19 consume over 95% of
    // step time, led by Conv2DBackpropFilter and Conv2DBackpropInput.
    auto report = profiler().profile(nn::buildVgg19());
    auto top = report.topByTime();
    ASSERT_GE(top.size(), 5u);
    EXPECT_EQ(top[0].type, nn::OpType::Conv2DBackpropFilter);
    EXPECT_EQ(top[1].type, nn::OpType::Conv2DBackpropInput);
    double top5 = 0.0;
    for (int i = 0; i < 5; ++i)
        top5 += top[static_cast<std::size_t>(i)].timePct;
    EXPECT_GT(top5, 90.0);
}

TEST(Profiler, TopFiveMemoryOpsDominateTraffic)
{
    // Paper: top-5 MI ops contribute over 98% of main-memory
    // accesses. Our compulsory-traffic cost model spreads activation
    // traffic more evenly (see EXPERIMENTS.md), so we assert a clear
    // majority rather than the paper's 98%.
    for (auto model : {nn::ModelId::Vgg19, nn::ModelId::AlexNet}) {
        auto report = profiler().profile(nn::buildModel(model));
        auto top = report.topByAccesses();
        double top5 = 0.0;
        for (std::size_t i = 0; i < 5 && i < top.size(); ++i)
            top5 += top[i].accessPct;
        EXPECT_GT(top5, 60.0) << nn::modelName(model);
    }
}

TEST(Profiler, EmptyGraphYieldsEmptyReport)
{
    nn::Graph empty("empty");
    auto report = profiler().profile(empty);
    EXPECT_TRUE(report.byType.empty());
    EXPECT_DOUBLE_EQ(report.totalTimeSec, 0.0);
}
