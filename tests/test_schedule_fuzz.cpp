/**
 * @file
 * Property/fuzz test of the executor and schedule validator: ~200
 * random (graph, config) points -- random DAG shapes, op mixes and
 * batch sizes crossed with random SystemConfigs (pipeline window,
 * PIM counts, pimManaged guests) -- must all produce schedules with
 * zero validator violations and reports whose invariants hold
 * (non-negative times/energy, device busy time <= makespan).
 *
 * Each point draws from its own sim::Rng stream
 * (Rng::streamSeed(base, i)), so a failure reproduces from the
 * printed point index alone. The points execute on the sweep engine,
 * which also exercises the thread pool under the sanitizer jobs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "graph_queries.hh"
#include "harness/sweep.hh"
#include "rt/schedule_validator.hh"
#include "schedule_fuzz_corpus.hh"

using namespace hpim;
using namespace schedule_fuzz;

namespace {

struct FuzzOutcome
{
    std::size_t point = 0;
    std::vector<std::string> violations;
};

/** Run one random (graphs, config) point and collect violations. */
FuzzOutcome
fuzzPoint(std::size_t index, sim::Rng &rng, bool with_faults = false)
{
    FuzzOutcome outcome;
    outcome.point = index;

    FuzzRun run = randomPoint(index, rng, with_faults);
    const rt::SystemConfig &config = run.config;
    const rt::ExecutionReport &report = run.report;
    auto validation = validateSchedule(run.trace, run.graphPointers(),
                                       run.steps, config);
    for (const auto &violation : validation.violations)
        outcome.violations.push_back(violation.what);

    // ---- ExecutionReport invariants.
    auto check = [&outcome](bool ok, const std::string &what) {
        if (!ok)
            outcome.violations.push_back("report invariant: " + what);
    };
    if (with_faults) {
        // Graceful degradation must never drop work: every op of
        // every step completes somewhere (possibly on the CPU).
        std::uint64_t expected = 0;
        for (std::size_t w = 0; w < run.graphs.size(); ++w)
            expected += std::uint64_t(run.graphs[w].size())
                        * run.steps[w];
        std::uint64_t placed = 0;
        for (const auto &[placement, count] : report.opsByPlacement)
            placed += count;
        check(placed == expected,
              "all " + std::to_string(expected)
                  + " ops complete under faults (got "
                  + std::to_string(placed) + ")");
    }
    double makespan = report.makespanSec;
    double slack = 1e-9 + 1e-6 * makespan;
    check(makespan > 0.0, "makespan must be positive");
    check(report.stepSec >= 0.0, "stepSec >= 0");
    check(report.opSec >= 0.0, "opSec >= 0");
    check(report.dataMovementSec >= 0.0, "dataMovementSec >= 0");
    check(report.syncSec >= 0.0, "syncSec >= 0");
    double parts =
        report.opSec + report.dataMovementSec + report.syncSec;
    check(std::abs(parts - report.stepSec) <= slack,
          "op+dm+sync must equal stepSec");
    check(report.cpuBusySec <= makespan + slack,
          "cpuBusySec <= makespan");
    check(report.progrBusySec
              <= makespan * config.progrPimCount + slack,
          "progrBusySec <= makespan x progrPimCount");
    check(report.fixedUtilization >= 0.0
              && report.fixedUtilization <= 1.0 + 1e-6,
          "fixedUtilization in [0, 1]");
    check(report.cpuEnergyJ >= 0.0, "cpuEnergyJ >= 0");
    check(report.progrEnergyJ >= 0.0, "progrEnergyJ >= 0");
    check(report.fixedEnergyJ >= 0.0, "fixedEnergyJ >= 0");
    check(report.dramEnergyJ >= 0.0, "dramEnergyJ >= 0");
    check(report.totalEnergyJ >= 0.0, "totalEnergyJ >= 0");
    check(report.edp >= 0.0, "edp >= 0");
    return outcome;
}

/** One random Builder-DAG point: build, execute, validate. */
FuzzOutcome
builderFuzzPoint(std::size_t index, sim::Rng &rng)
{
    FuzzOutcome outcome;
    outcome.point = index;

    FuzzRun run = builderPoint(index, rng);
    auto validation = validateSchedule(run.trace, run.graphPointers(),
                                       run.steps, run.config);
    for (const auto &violation : validation.violations)
        outcome.violations.push_back(violation.what);
    return outcome;
}

} // namespace

TEST(ScheduleFuzz, RandomGraphsAndConfigsProduceLegalSchedules)
{
    harness::SweepOptions options;
    options.baseSeed = fuzzBaseSeed;
    harness::SweepRunner runner(options);
    auto outcomes =
        runner.map(numFuzzPoints, [](std::size_t index, sim::Rng &rng) {
            return fuzzPoint(index, rng, false);
        });

    std::size_t failing_points = 0;
    for (const FuzzOutcome &outcome : outcomes) {
        if (outcome.violations.empty())
            continue;
        ++failing_points;
        for (const auto &what : outcome.violations) {
            ADD_FAILURE() << "point " << outcome.point
                          << " (stream seed "
                          << sim::Rng::streamSeed(fuzzBaseSeed,
                                                  outcome.point)
                          << "): " << what;
        }
    }
    EXPECT_EQ(failing_points, 0u);
}

TEST(ScheduleFuzz, RandomFaultSchedulesStillProduceLegalSchedules)
{
    // Second 200-point pass with the resilience layer armed: random
    // transient/stall rates, bank kills and thermal throttling on top
    // of the random (graph, config) points. Schedules must stay
    // violation-free and no op may be lost to a fault.
    harness::SweepOptions options;
    options.baseSeed = faultFuzzBaseSeed;
    harness::SweepRunner runner(options);
    auto outcomes =
        runner.map(numFuzzPoints, [](std::size_t index, sim::Rng &rng) {
            return fuzzPoint(index, rng, true);
        });

    std::size_t failing_points = 0;
    for (const FuzzOutcome &outcome : outcomes) {
        if (outcome.violations.empty())
            continue;
        ++failing_points;
        for (const auto &what : outcome.violations) {
            ADD_FAILURE() << "fault point " << outcome.point
                          << " (stream seed "
                          << sim::Rng::streamSeed(faultFuzzBaseSeed,
                                                  outcome.point)
                          << "): " << what;
        }
    }
    EXPECT_EQ(failing_points, 0u);
}

TEST(ScheduleFuzz, LargeCandidateWithoutItsDeviceCompletes)
{
    // A point from another base seed that used to deadlock: no fixed
    // pool, 4 programmable PIMs, and a managed co-runner whose 2.3 ms
    // Conv2D -- a fixed-function candidate too large for the CPU
    // fallback -- waited for reduction trees that do not exist.
    constexpr std::uint64_t base = 0x5eed0000ULL;
    sim::Rng rng(sim::Rng::streamSeed(base, 17));
    FuzzRun run = randomPoint(17, rng, false);
    EXPECT_FALSE(run.config.hasFixedPim);
    auto validation = validateSchedule(run.trace, run.graphPointers(),
                                       run.steps, run.config);
    for (const auto &violation : validation.violations)
        ADD_FAILURE() << violation.what;
}

TEST(ScheduleFuzz, PointsAreReproducible)
{
    // The same stream index must regenerate the identical point.
    sim::Rng a(sim::Rng::streamSeed(fuzzBaseSeed, 17));
    sim::Rng b(sim::Rng::streamSeed(fuzzBaseSeed, 17));
    nn::Graph ga = randomGraph(a, "g");
    nn::Graph gb = randomGraph(b, "g");
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i) {
        auto id = static_cast<nn::OpId>(i);
        EXPECT_EQ(ga.op(id).type, gb.op(id).type);
        EXPECT_EQ(test::inputsOf(ga, id), test::inputsOf(gb, id));
        EXPECT_DOUBLE_EQ(ga.op(id).cost.flops(),
                         gb.op(id).cost.flops());
    }
}

TEST(ScheduleFuzz, RandomBuilderDagsProduceLegalSchedules)
{
    // 100 random user-style DAGs authored through the public
    // nn::Builder -- autodiff, gradient fan-in Adds, both optimizers
    // -- crossed with random SystemConfigs. Every schedule must pass
    // validateSchedule with zero violations, the same bar the
    // hand-rolled random graphs meet.
    harness::SweepOptions options;
    options.baseSeed = builderFuzzBaseSeed;
    harness::SweepRunner runner(options);
    auto outcomes = runner.map(
        numBuilderPoints, [](std::size_t index, sim::Rng &rng) {
            return builderFuzzPoint(index, rng);
        });

    std::size_t failing_points = 0;
    for (const FuzzOutcome &outcome : outcomes) {
        if (outcome.violations.empty())
            continue;
        ++failing_points;
        for (const auto &what : outcome.violations) {
            ADD_FAILURE() << "builder point " << outcome.point
                          << " (stream seed "
                          << sim::Rng::streamSeed(builderFuzzBaseSeed,
                                                  outcome.point)
                          << "): " << what;
        }
    }
    EXPECT_EQ(failing_points, 0u);
}

TEST(ScheduleFuzz, BuilderPointsAreReproducible)
{
    sim::Rng a(sim::Rng::streamSeed(builderFuzzBaseSeed, 23));
    sim::Rng b(sim::Rng::streamSeed(builderFuzzBaseSeed, 23));
    nn::Graph ga = randomBuilderGraph(a, "g");
    nn::Graph gb = randomBuilderGraph(b, "g");
    EXPECT_EQ(ga.signature(), gb.signature());
}
