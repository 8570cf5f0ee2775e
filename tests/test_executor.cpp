/**
 * @file
 * Unit tests for the heterogeneous execution engine: placement rules,
 * RC/OP behaviour, utilization accounting, and deterministic results.
 */

#include <gtest/gtest.h>

#include <map>

#include "baseline/presets.hh"
#include "cpu/cpu_model.hh"
#include "nn/builder.hh"
#include "nn/models.hh"
#include "rt/executor.hh"
#include "rt/hetero_runtime.hh"

using namespace hpim;
using namespace hpim::rt;
using baseline::makeConfig;
using baseline::makeHetero;
using baseline::SystemKind;

namespace {

nn::Graph
tinyCnn()
{
    nn::CnnBuilder b("tiny", nn::TensorShape{4, 16, 16, 3});
    b.conv(3, 8, 1).maxPool(2, 2).fc(10, false);
    return b.finish();
}

ExecutionReport
runOn(const SystemConfig &config, const nn::Graph &graph,
      std::uint32_t steps = 2)
{
    HeteroRuntime runtime(config);
    return runtime.train(graph, steps).execution;
}

} // namespace

TEST(Executor, CpuOnlyRunsEverythingOnCpu)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    auto graph = tinyCnn();
    auto report = runOn(config, graph);
    EXPECT_EQ(report.opsByPlacement.count(PlacedOn::FixedPool), 0u);
    EXPECT_EQ(report.opsByPlacement.count(PlacedOn::ProgrPim), 0u);
    EXPECT_EQ(report.opsByPlacement[PlacedOn::Cpu],
              2u * graph.size());
    // Serial CPU: makespan equals busy time.
    EXPECT_NEAR(report.cpuBusySec, report.makespanSec, 1e-9);
}

TEST(Executor, HeteroUsesAllDeviceKinds)
{
    auto config = makeConfig(SystemKind::HeteroPim);
    auto report = runOn(config, tinyCnn());
    EXPECT_GT(report.opsByPlacement[PlacedOn::FixedPool], 0u);
    EXPECT_GT(report.opsByPlacement[PlacedOn::ProgrPim], 0u);
    EXPECT_GT(report.opsByPlacement[PlacedOn::ProgrRecursive], 0u);
}

TEST(Executor, RecursiveKernelsReplaceHostDrivenOffload)
{
    auto with_rc = makeHetero(true, true, false);
    auto without_rc = makeHetero(true, false, false);
    auto graph = tinyCnn();
    auto rc = runOn(with_rc, graph);
    auto no_rc = runOn(without_rc, graph);
    EXPECT_GT(rc.opsByPlacement[PlacedOn::ProgrRecursive], 0u);
    EXPECT_EQ(rc.opsByPlacement[PlacedOn::FixedHostDriven], 0u);
    EXPECT_EQ(no_rc.opsByPlacement[PlacedOn::ProgrRecursive], 0u);
    EXPECT_EQ(no_rc.recursiveLaunches, 0u);
    EXPECT_GT(rc.recursiveLaunches, 0u);
}

TEST(Executor, RcReducesHostLaunches)
{
    // RC merges kernels: the host launches far fewer times.
    auto graph = nn::buildAlexNet();
    auto rc = runOn(makeHetero(true, true, true), graph);
    auto no_rc = runOn(makeHetero(true, false, true), graph);
    EXPECT_LT(rc.hostLaunches, no_rc.hostLaunches);
}

TEST(Executor, OpImprovesUtilizationAndTime)
{
    auto graph = nn::buildAlexNet();
    auto with_op = runOn(makeHetero(true, true, true), graph, 4);
    auto without_op = runOn(makeHetero(true, true, false), graph, 4);
    EXPECT_GE(with_op.fixedUtilization,
              without_op.fixedUtilization - 1e-9);
    EXPECT_LE(with_op.stepSec, without_op.stepSec * 1.001);
}

TEST(Executor, UtilizationIsAFraction)
{
    auto report = runOn(makeConfig(SystemKind::HeteroPim), tinyCnn());
    EXPECT_GE(report.fixedUtilization, 0.0);
    EXPECT_LE(report.fixedUtilization, 1.0);
}

TEST(Executor, BreakdownSumsToStepTime)
{
    auto report = runOn(makeConfig(SystemKind::HeteroPim),
                        nn::buildDcgan());
    EXPECT_NEAR(report.opSec + report.dataMovementSec + report.syncSec,
                report.stepSec, report.stepSec * 1e-6);
}

TEST(Executor, EnergyComponentsSumToTotal)
{
    auto report = runOn(makeConfig(SystemKind::HeteroPim),
                        nn::buildDcgan());
    EXPECT_NEAR(report.totalEnergyJ,
                report.cpuEnergyJ + report.progrEnergyJ
                    + report.fixedEnergyJ + report.dramEnergyJ,
                report.totalEnergyJ * 1e-9);
    EXPECT_GT(report.averagePowerW, 0.0);
    EXPECT_GT(report.edp, 0.0);
}

TEST(Executor, DeterministicAcrossRuns)
{
    auto config = makeConfig(SystemKind::HeteroPim);
    auto graph = nn::buildDcgan();
    auto a = runOn(config, graph);
    auto b = runOn(config, graph);
    EXPECT_DOUBLE_EQ(a.stepSec, b.stepSec);
    EXPECT_DOUBLE_EQ(a.totalEnergyJ, b.totalEnergyJ);
    EXPECT_EQ(a.hostLaunches, b.hostLaunches);
}

TEST(Executor, MakespanScalesWithSteps)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    auto graph = tinyCnn();
    auto two = runOn(config, graph, 2);
    auto four = runOn(config, graph, 4);
    EXPECT_NEAR(four.makespanSec, 2.0 * two.makespanSec,
                0.01 * four.makespanSec);
}

TEST(Executor, ProgrOnlyKeepsFixedPoolIdle)
{
    auto report = runOn(makeConfig(SystemKind::ProgrPimOnly),
                        tinyCnn());
    EXPECT_DOUBLE_EQ(report.fixedUnitSeconds, 0.0);
    EXPECT_GT(report.progrBusySec, 0.0);
}

TEST(Executor, FixedOnlySendsSpecialOpsToCpu)
{
    auto report = runOn(makeConfig(SystemKind::FixedPimOnly),
                        tinyCnn());
    EXPECT_GT(report.opsByPlacement[PlacedOn::Cpu], 0u);
    EXPECT_GT(report.opsByPlacement[PlacedOn::FixedPool], 0u);
    EXPECT_EQ(report.opsByPlacement[PlacedOn::ProgrPim], 0u);
    EXPECT_GT(report.opsByPlacement[PlacedOn::FixedHostDriven], 0u);
}

TEST(Executor, LinkTrafficOnlyFromHostSideWork)
{
    // In a hetero system most traffic is in-stack.
    auto report = runOn(makeConfig(SystemKind::HeteroPim),
                        nn::buildAlexNet());
    EXPECT_GT(report.internalBytes, report.linkBytes);
}

TEST(Executor, GuestWorkloadRunsOnCpuAndProgrOnly)
{
    // Run a guest workload alone on a hetero system: it must never be
    // placed on the fixed pool or use recursive kernels even though
    // both exist (paper SectionVI-F: the non-CNN model executes on
    // the CPU or the programmable PIM).
    auto config = makeConfig(SystemKind::HeteroPim);
    Executor executor(config);
    auto guest = nn::buildLstm();
    WorkloadSpec spec;
    spec.graph = &guest;
    spec.steps = 1;
    spec.pimManaged = false;
    auto report = executor.run({spec});
    EXPECT_EQ(report.opsByPlacement[PlacedOn::FixedPool], 0u);
    EXPECT_EQ(report.opsByPlacement[PlacedOn::ProgrRecursive], 0u);
    EXPECT_EQ(report.opsByPlacement[PlacedOn::FixedHostDriven], 0u);
    EXPECT_GT(report.opsByPlacement[PlacedOn::Cpu]
                  + report.opsByPlacement[PlacedOn::ProgrPim],
              0u);
}

namespace {

/**
 * Run @p graph's one op for 2 steps under dynamic scheduling with no
 * OffloadSelection (every op a candidate) and return its placements.
 * The op must be too large for the CPU fallback of principle 2, which
 * only sends *small* candidates to the CPU while their device is busy.
 */
std::map<PlacedOn, std::uint64_t>
runLargeCandidate(SystemConfig config, const nn::Graph &graph)
{
    config.dynamicScheduling = true;
    cpu::CpuModel cpu(config.cpu);
    EXPECT_GT(cpu.opSeconds(graph.op(0).cost),
              config.cpuFallbackThresholdSec);
    Executor executor(config);
    return executor.run(graph, 2).opsByPlacement;
}

} // namespace

TEST(Executor, LargeFixedFunctionOpWithoutPoolRunsOnCpu)
{
    // No fixed pool: there are no trees to wait for, so the op must
    // fall back to the CPU instead of deadlocking the run.
    SystemConfig config;
    config.hasProgrPim = true;
    config.progrPimCount = 4;
    nn::Graph graph("big-matmul");
    graph.add(nn::OpType::MatMul, "mm", nn::matmulCost(1024, 1024, 1024),
              nn::fixedParallelism(nn::OpType::MatMul, 1024,
                                   1024.0 * 1024.0));
    auto placed = runLargeCandidate(config, graph);
    EXPECT_EQ(placed[PlacedOn::Cpu], 2u);
}

TEST(Executor, LargeProgrammableOpWithoutProgrPimRunsOnCpu)
{
    // No programmable PIM: same fallback for the classes that would
    // run there (ProgrammableOnly and DataMovement).
    SystemConfig config;
    config.hasFixedPim = true;
    nn::Graph graph("big-adam");
    graph.add(nn::OpType::ApplyAdam, "adam", nn::applyAdamCost(1 << 24),
              nn::fixedParallelism(nn::OpType::ApplyAdam, 1, 0.0));
    auto placed = runLargeCandidate(config, graph);
    EXPECT_EQ(placed[PlacedOn::Cpu], 2u);

    nn::Graph moves("big-concat");
    moves.add(nn::OpType::Concat, "concat",
              nn::dataMovementCost(double(1 << 30)),
              nn::fixedParallelism(nn::OpType::Concat, 1, 0.0));
    placed = runLargeCandidate(config, moves);
    EXPECT_EQ(placed[PlacedOn::Cpu], 2u);
}

namespace {

/** One MatMul of @p flops multiplies and as many adds. */
nn::Graph
oneLongMatMul(double flops)
{
    nn::CostStructure cost;
    cost.muls = flops;
    cost.adds = flops;
    cost.bytesRead = 1e6;
    nn::Graph graph("long-matmul");
    graph.add(nn::OpType::MatMul, "m", cost, nn::FixedParallelism{4, 1e6});
    return graph;
}

} // namespace

TEST(Executor, RunPastTheTickClockThrowsTyped)
{
    // At 5e19 the op's completion lies past 2^64 ps (~1.845e7 s), which
    // no Tick can hold: a typed error, not a wrapped clock.
    auto config = makeConfig(SystemKind::HeteroPim);
    EXPECT_THROW(runOn(config, oneLongMatMul(5e19), 1),
                 SimulationRangeError);
    // Just inside the clock the same op completes.
    auto report = runOn(config, oneLongMatMul(4e19), 1);
    EXPECT_GT(report.makespanSec, 1.8e7);
    EXPECT_LT(report.makespanSec, 1.845e7);
}

TEST(ExecutorDeath, EmptyWorkloadListIsFatal)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    Executor executor(config);
    EXPECT_EXIT(executor.run({}), testing::ExitedWithCode(1),
                "no workloads");
}

TEST(ExecutorDeath, ZeroStepsIsFatal)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    Executor executor(config);
    auto graph = tinyCnn();
    WorkloadSpec spec;
    spec.graph = &graph;
    spec.steps = 0;
    EXPECT_EXIT(executor.run({spec}), testing::ExitedWithCode(1),
                "zero steps");
}

TEST(ExecutorDeath, RunningTwiceIsFatal)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    Executor executor(config);
    auto graph = tinyCnn();
    executor.run(graph, 1);
    EXPECT_EXIT(executor.run(graph, 1), testing::ExitedWithCode(1),
                "called twice");
}
