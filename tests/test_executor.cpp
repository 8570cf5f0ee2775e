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
#include "obs/metrics.hh"
#include "rt/executor.hh"
#include "rt/hetero_runtime.hh"
#include "sim/hash.hh"

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

/** A chain of @p count MatMuls of @p flops multiplies and as many
 *  adds each. */
nn::Graph
longMatMuls(double flops, std::uint32_t count = 1)
{
    nn::CostStructure cost;
    cost.muls = flops;
    cost.adds = flops;
    cost.bytesRead = 1e6;
    nn::Graph graph("long-matmul");
    for (nn::OpId id = 0; id < count; ++id) {
        std::vector<nn::OpId> inputs;
        if (id > 0)
            inputs.push_back(id - 1);
        graph.add(nn::OpType::MatMul, "m", cost,
                  nn::FixedParallelism{4, 1e6}, inputs);
    }
    return graph;
}

} // namespace

TEST(Executor, RunPastTheTickClockThrowsTyped)
{
    // At 5e19 the op's completion lies past 2^64 ps (~1.845e7 s), which
    // no Tick can hold: a typed error, not a wrapped clock.
    auto config = makeConfig(SystemKind::HeteroPim);
    EXPECT_THROW(runOn(config, longMatMuls(5e19), 1),
                 SimulationRangeError);
    // Just inside the clock the same op completes.
    auto report = runOn(config, longMatMuls(4e19), 1);
    EXPECT_GT(report.makespanSec, 1.8e7);
    EXPECT_LT(report.makespanSec, 1.845e7);
}

TEST(Executor, EventBudgetScalesWithRequestedWork)
{
    // Three events per op attempt. The budgets cover the event counts
    // DispatchIdentity.WorkCountersArePinned pins (434, 1003 and 239),
    // and 210000 VGG-19 steps, which the old fixed budget of 50M
    // events aborted, fit theirs.
    auto budget = [](const SystemConfig &config, const nn::Graph &graph,
                     std::uint32_t steps) {
        WorkloadSpec spec;
        spec.graph = &graph;
        spec.steps = steps;
        return Executor::eventBudget(config, {spec});
    };
    const SystemConfig hetero = makeConfig(SystemKind::HeteroPim);
    const nn::Graph alexnet = nn::buildAlexNet();
    const nn::Graph vgg19 = nn::buildVgg19();
    EXPECT_EQ(budget(hetero, alexnet, 4), 3u * 4 * alexnet.size());
    EXPECT_GE(budget(hetero, alexnet, 4), 434u);
    EXPECT_GE(budget(hetero, vgg19, 4), 1003u);
    EXPECT_GT(budget(hetero, vgg19, 210'000), 50'000'000u);

    // With faults: two faulting rungs of maxAttempts (3) attempts and
    // the CPU, plus one event per killed bank.
    SystemConfig faulted = hetero;
    faulted.faults.enabled = true;
    faulted.faults.killBanks = 4;
    EXPECT_EQ(budget(faulted, alexnet, 2), 4 + 3u * 7 * 2 * alexnet.size());
    EXPECT_GE(budget(faulted, alexnet, 2), 239u);

    // Co-run workloads add up; a budget past 2^64 saturates.
    WorkloadSpec a{&alexnet, 4, true};
    WorkloadSpec b{&vgg19, 4, false};
    EXPECT_EQ(Executor::eventBudget(hetero, {a, b}),
              budget(hetero, alexnet, 4) + budget(hetero, vgg19, 4));
    faulted.faults.maxAttempts = ~0u;
    WorkloadSpec huge{&vgg19, (1u << 24) - 1, true};
    EXPECT_EQ(Executor::eventBudget(faulted, {huge, huge}),
              ~std::uint64_t{0});
}

TEST(Executor, PoolReArmsDoNotCountAgainstTheEventBudget)
{
    // Near 1.6e7 s one double step of the clock in seconds is about
    // 1900 ticks, so the pool event fires a few flops early and
    // re-arms tick by tick, about 200 times per phase. The run pops
    // far more events than its 300-event budget and still completes.
    auto config = makeConfig(SystemKind::HeteroPim);
    nn::Graph graph = longMatMuls(3.5e17, 100);
    obs::MetricsRegistry registry;
    registry.attach();
    auto report = runOn(config, graph, 1);
    registry.detach();
    EXPECT_GT(report.makespanSec, 1.5e7);
    WorkloadSpec spec{&graph, 1, true};
    EXPECT_EQ(Executor::eventBudget(config, {spec}), 300u);
    EXPECT_GT(registry.counter("rt.sched.events").value(), 20'000u);
}

TEST(Executor, ThrottleTogglesDoNotCountAgainstTheEventBudget)
{
    // At 128x clock the hottest banks duty-cycle every 2 ms for the
    // whole run: the toggles follow the makespan, not the ops.
    auto config = makeConfig(SystemKind::HeteroPim, 128.0);
    config.faults.enabled = true;
    nn::Graph graph = nn::buildVgg19();
    auto report = runOn(config, graph, 4);
    WorkloadSpec spec{&graph, 4, true};
    EXPECT_GT(report.throttleEvents,
              Executor::eventBudget(config, {spec}));
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

TEST(ExecutorDeath, RunningAgainAfterAThrowIsFatal)
{
    // The first dispatch throws before any event pops and leaves the
    // CPU marked busy, so a second run could only deadlock.
    auto config = makeConfig(SystemKind::CpuOnly);
    Executor executor(config);
    nn::Graph graph = longMatMuls(5e19);
    EXPECT_THROW(executor.run(graph, 1), SimulationRangeError);
    EXPECT_EXIT(executor.run(graph, 1), testing::ExitedWithCode(1),
                "called twice");
}

// ---- Placement as a table over device views (rt::decidePlacement).

namespace {

PlacementSignature
signature(nn::OffloadClass cls, bool candidate, bool small_on_cpu,
          bool managed = true, std::uint32_t level = 0)
{
    PlacementSignature sig;
    sig.cls = cls;
    sig.candidate = candidate;
    sig.smallOnCpu = small_on_cpu;
    sig.managed = managed;
    sig.level = level;
    return sig;
}

/**
 * The 16 verdicts of @p sig, one letter per view (c cpu, f fixed pool,
 * p programmable PIM, r programmable PIM + RC, h host-driven pool,
 * '.' wait), in four groups of four. Views run in index order: the
 * group is (tree free, pool failed) = 00, 10, 01, 11, and within a
 * group (CPU busy, programmable PIM free) = 00, 10, 01, 11.
 */
std::string
verdictRow(const SystemConfig &config, const PlacementSignature &sig)
{
    std::string row;
    for (unsigned view = 0; view < DeviceView::count; ++view) {
        if (view > 0 && view % 4 == 0)
            row += ' ';
        std::optional<PlacedOn> verdict =
            decidePlacement(config, sig, view);
        if (!verdict) {
            row += '.';
            continue;
        }
        switch (*verdict) {
          case PlacedOn::Cpu:             row += 'c'; break;
          case PlacedOn::FixedPool:       row += 'f'; break;
          case PlacedOn::ProgrPim:        row += 'p'; break;
          case PlacedOn::ProgrRecursive:  row += 'r'; break;
          case PlacedOn::FixedHostDriven: row += 'h'; break;
        }
    }
    return row;
}

SystemConfig
faultedHetero()
{
    SystemConfig config = makeConfig(SystemKind::HeteroPim);
    config.faults.enabled = true;
    return config;
}

/** Every signature: class x candidate x small-on-CPU x managed x rung. */
std::vector<PlacementSignature>
allSignatures()
{
    std::vector<PlacementSignature> all;
    for (int cls = 0; cls < 4; ++cls) {
        for (bool candidate : {false, true}) {
            for (bool small : {false, true}) {
                for (bool managed : {false, true}) {
                    for (std::uint32_t level = 0; level < 3; ++level) {
                        all.push_back(signature(
                            static_cast<nn::OffloadClass>(cls),
                            candidate, small, managed, level));
                    }
                }
            }
        }
    }
    return all;
}

} // namespace

TEST(ExecutorPlacement, PrinciplesAndLadderRows)
{
    using nn::OffloadClass;
    const SystemConfig hetero = makeConfig(SystemKind::HeteroPim);
    const SystemConfig no_rc = makeHetero(true, false, true);
    const SystemConfig faulted = faultedHetero();

    // Principle 1: a fixed-function candidate takes a free tree before
    // an idle CPU. Principle 2: with no tree free, a small one runs on
    // the idle CPU rather than leave it idle; a large one waits for
    // its busy device.
    EXPECT_EQ(verdictRow(hetero, signature(OffloadClass::FixedFunction,
                                           true, true)),
              "c.c. ffff c.c. ffff");
    EXPECT_EQ(verdictRow(hetero, signature(OffloadClass::FixedFunction,
                                           true, false)),
              ".... ffff .... ffff");
    // A programmable-only candidate likewise waits for its PIM.
    EXPECT_EQ(verdictRow(hetero, signature(OffloadClass::ProgrammableOnly,
                                           true, false)),
              "..pp ..pp ..pp ..pp");
    // RC: a recursive candidate with a free programmable PIM runs
    // there and feeds the pool, tree free or not.
    EXPECT_EQ(verdictRow(hetero, signature(OffloadClass::Recursive, true,
                                           false)),
              "..rr ..rr ..rr ..rr");
    // Without RC the host drives the pool: an idle CPU and a tree.
    EXPECT_EQ(verdictRow(no_rc, signature(OffloadClass::Recursive, true,
                                          false)),
              ".... h.h. .... h.h.");
    // A non-candidate stays on the CPU and moves only to an idle PIM
    // while the CPU is busy.
    EXPECT_EQ(verdictRow(hetero, signature(OffloadClass::FixedFunction,
                                           false, false)),
              "c.c. cfcf c.c. cfcf");
    EXPECT_EQ(verdictRow(hetero, signature(OffloadClass::Recursive, false,
                                           false)),
              "c.cp c.cp c.cp c.cp");
    // A guest workload uses only the CPU and the programmable PIM.
    EXPECT_EQ(verdictRow(hetero, signature(OffloadClass::FixedFunction,
                                           true, false, false)),
              "c.cp c.cp c.cp c.cp");

    // The ladder: rung 1 goes to the programmable PIM and rung 2 to
    // the CPU; an op that started on the programmable PIM drops
    // straight to the CPU.
    EXPECT_EQ(verdictRow(faulted, signature(OffloadClass::FixedFunction,
                                            true, false, true, 1)),
              "..pp ..pp ..pp ..pp");
    EXPECT_EQ(verdictRow(faulted, signature(OffloadClass::FixedFunction,
                                            true, false, true, 2)),
              "c.c. c.c. c.c. c.c.");
    EXPECT_EQ(verdictRow(faulted,
                         signature(OffloadClass::ProgrammableOnly, true,
                                   false, true, 1)),
              "c.c. c.c. c.c. c.c.");
    // With every bank failed a fixed-destined op skips to rung 1
    // instead of waiting for trees that will never come back.
    EXPECT_EQ(verdictRow(faulted, signature(OffloadClass::FixedFunction,
                                            true, false)),
              ".... ffff ..pp ..pp");
    // The pool-failed bit means nothing without faults.
    EXPECT_EQ(verdictRow(hetero, signature(OffloadClass::FixedFunction,
                                           true, false, true, 1)),
              ".... ffff .... ffff");
}

TEST(ExecutorPlacement, FreeingADeviceNeverBlocksAnOp)
{
    // Executor::dispatchAll sweeps the ready queues again only after a
    // placement that added a pool phase. Every other placement only
    // takes devices, and that is sound because an op placeable under a
    // view stays placeable under the view with one more device free:
    // an idle CPU, a free programmable PIM or a free tree.
    const std::pair<const char *, SystemConfig> systems[] = {
        {"Fig. 8 Hetero", makeConfig(SystemKind::HeteroPim)},
        {"Hetero without RC", makeHetero(true, false, true)},
        {"FixedPimOnly", makeConfig(SystemKind::FixedPimOnly)},
        {"ProgrPimOnly", makeConfig(SystemKind::ProgrPimOnly)},
        {"faulted Hetero", faultedHetero()},
        {"CpuOnly", makeConfig(SystemKind::CpuOnly)},
    };
    const std::vector<PlacementSignature> signatures = allSignatures();
    ASSERT_EQ(signatures.size(), 96u);
    for (const auto &[name, config] : systems) {
        for (const PlacementSignature &sig : signatures) {
            for (unsigned view = 0; view < DeviceView::count; ++view) {
                if (!decidePlacement(config, sig, view))
                    continue;
                for (unsigned freed :
                     {view & ~DeviceView::cpuBusy,
                      view | DeviceView::progrFree,
                      view | DeviceView::treeFree}) {
                    EXPECT_TRUE(decidePlacement(config, sig, freed))
                        << name << ", view " << view << " -> " << freed
                        << ": " << verdictRow(config, sig);
                }
            }
        }
    }
}

TEST(ExecutorPlacement, NewPoolPhaseFreesTreesForAPassedOp)
{
    // The one case dispatchAll sweeps again for. poolReallocate grants
    // extra trees greedily and in whole trees, so a new phase can
    // leave more units free than before it started: here an older
    // phase of tree 4 holds two trees of a 10-unit pool, a recursive
    // op adds a phase of tree 3, and the older phase's second tree no
    // longer fits, so 3 units are free where 2 were. The width-3 op
    // the sweep passed over before the recursive op can then start at
    // the same tick.
    SystemConfig config = makeHetero(true, true, false, 1.0, 1);
    config.fixed.totalUnits = 10;
    config.steps = 1;

    nn::CostStructure long_work;
    long_work.muls = long_work.adds = 1e15;
    long_work.bytesRead = 1e6;
    nn::CostStructure gate;
    gate.specials = 1e8;
    nn::CostStructure wide;
    wide.muls = wide.adds = 1e12; // too large to run on the CPU
    wide.bytesRead = 1e6;
    nn::CostStructure recursive = wide;
    recursive.specials = 1e6;

    nn::Graph graph("resweep");
    const nn::OpId older = graph.add(nn::OpType::MatMul, "older",
                                     long_work, {4, 2.0});
    const nn::OpId gate_id =
        graph.add(nn::OpType::Relu, "gate", gate, {1, 1.0});
    const nn::OpId waiting = graph.add(nn::OpType::MatMul, "waiting",
                                       wide, {3, 1.0}, {gate_id});
    const nn::OpId rc = graph.add(nn::OpType::MatMulGradWeights, "rc",
                                  recursive, {3, 1.0}, {gate_id});

    ScheduleTrace trace;
    Executor executor(config);
    executor.attachTrace(&trace);
    executor.run(graph, 1);
    std::map<nn::OpId, TraceEntry> by_op;
    for (const TraceEntry &entry : trace.entries())
        by_op[entry.opId] = entry;
    ASSERT_EQ(by_op.size(), graph.size());
    EXPECT_EQ(by_op[older].placement, PlacedOn::FixedPool);
    EXPECT_EQ(by_op[gate_id].placement, PlacedOn::ProgrPim);
    EXPECT_EQ(by_op[rc].placement, PlacedOn::ProgrRecursive);
    EXPECT_EQ(by_op[waiting].placement, PlacedOn::FixedPool);
    EXPECT_GT(by_op[rc].startSec, by_op[older].startSec);
    EXPECT_EQ(by_op[waiting].startSec, by_op[rc].startSec);
}

TEST(ExecutorPlacement, EverySignatureOnEverySystemIsPinned)
{
    // Every signature (class x candidate x small-on-CPU x managed x
    // rung) over all 16 views, folded per system. The rows above spell
    // out the ones that carry the paper's principles and the ladder.
    struct System
    {
        const char *name;
        SystemConfig config;
        std::uint64_t digest;
    };
    const System systems[] = {
        {"Fig. 8 Hetero", makeConfig(SystemKind::HeteroPim),
         0x335b07f064cdca71ULL},
        {"Hetero without RC", makeHetero(true, false, true),
         0xac4dd58f57c09badULL},
        {"FixedPimOnly", makeConfig(SystemKind::FixedPimOnly),
         0xe798b057de71b1a5ULL},
        {"ProgrPimOnly", makeConfig(SystemKind::ProgrPimOnly),
         0xc297d15116086025ULL},
        {"faulted Hetero", faultedHetero(),
         0x20f157edea2fadcfULL},
    };
    for (const System &system : systems) {
        std::string table;
        for (int cls = 0; cls < 4; ++cls) {
            for (bool candidate : {false, true}) {
                for (bool small : {false, true}) {
                    for (bool managed : {false, true}) {
                        for (std::uint32_t level = 0; level < 3; ++level) {
                            table += verdictRow(
                                system.config,
                                signature(
                                    static_cast<nn::OffloadClass>(cls),
                                    candidate, small, managed, level));
                            table += '\n';
                        }
                    }
                }
            }
        }
        EXPECT_EQ(sim::hashString(table), system.digest)
            << system.name << ":\n"
            << table;
    }
}
