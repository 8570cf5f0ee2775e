/**
 * @file
 * Ablations of the runtime's design choices (beyond the paper's own
 * figures, but directly probing its parameters):
 *   1. the offload-coverage target x of the candidate selector
 *      (the paper fixes x = 90);
 *   2. the host-driven feed depth for complex ops without RC
 *      (why RC matters);
 *   3. the in-bank operand reuse of the fixed-function units
 *      (why frequency scaling saturates).
 */

#include <iostream>

#include "baseline/presets.hh"
#include "harness/sweep.hh"
#include "harness/table_printer.hh"
#include "nn/models.hh"
#include "rt/hetero_runtime.hh"

int
main(int argc, char **argv)
{
    using namespace hpim;
    using harness::fmt;

    harness::SweepRunner runner(harness::parseSweepArgs(argc, argv));

    harness::banner(std::cout,
                    "Ablation 1: offload coverage target x "
                    "(paper: x = 90)");
    const std::vector<double> coverages = {30.0, 50.0, 70.0, 90.0,
                                           99.0};
    auto coverage_results = runner.map(
        coverages.size(), [&coverages](std::size_t i, sim::Rng &) {
            auto config =
                baseline::makeConfig(baseline::SystemKind::HeteroPim);
            config.offloadCoveragePct = coverages[i];
            config.steps = 3;
            rt::HeteroRuntime runtime(config);
            return runtime.train(nn::buildVgg19());
        });
    harness::TablePrinter coverage({"x (%)", "candidates",
                                    "VGG-19 step (ms)",
                                    "energy (J/step)"});
    for (std::size_t i = 0; i < coverages.size(); ++i) {
        const auto &result = coverage_results[i];
        coverage.addRow(
            {fmt(coverages[i], 0),
             std::to_string(result.selection->candidates.size()),
             fmt(result.execution.stepSec * 1e3, 1),
             fmt(result.execution.energyPerStepJ, 1)});
    }
    coverage.print(std::cout);

    harness::banner(std::cout,
                    "Ablation 2: host-driven feed depth without RC "
                    "(units a complex op can hold)");
    const std::vector<std::uint32_t> depths = {16, 48, 96, 192, 444};
    auto feed_results = runner.map(
        depths.size(), [&depths](std::size_t i, sim::Rng &) {
            auto config = baseline::makeHetero(true, false, true);
            config.hostDrivenMaxUnits = depths[i];
            config.steps = 3;
            rt::HeteroRuntime runtime(config);
            return runtime.train(nn::buildVgg19()).execution;
        });
    harness::TablePrinter feed({"max units", "VGG-19 step (ms)",
                                "fixed util"});
    for (std::size_t i = 0; i < depths.size(); ++i) {
        const auto &rep = feed_results[i];
        feed.addRow({std::to_string(depths[i]),
                     fmt(rep.stepSec * 1e3, 1),
                     harness::fmtPct(rep.fixedUtilization * 100.0)});
    }
    feed.print(std::cout);

    harness::banner(std::cout,
                    "Ablation 3: in-bank operand reuse "
                    "(flops per DRAM byte) at 4x frequency");
    // Point 0 is the 1x-frequency reference the speedups divide by.
    const std::vector<double> reuses = {10.0, 25.0, 45.0, 90.0};
    auto reuse_results = runner.map(
        reuses.size() + 1, [&reuses](std::size_t i, sim::Rng &) {
            auto config = baseline::makeConfig(
                baseline::SystemKind::HeteroPim, i == 0 ? 1.0 : 4.0);
            if (i > 0)
                config.fixedOperandReuse = reuses[i - 1];
            config.steps = 3;
            rt::HeteroRuntime runtime(config);
            return runtime.train(nn::buildVgg19()).execution.stepSec;
        });
    double base = reuse_results[0];
    harness::TablePrinter reuse({"reuse (flop/B)", "VGG-19 step (ms)",
                                 "speedup vs 1x-frequency"});
    for (std::size_t i = 0; i < reuses.size(); ++i) {
        double step = reuse_results[i + 1];
        reuse.addRow({fmt(reuses[i], 0), fmt(step * 1e3, 1),
                      harness::fmtRatio(base / step)});
    }
    reuse.print(std::cout);
    harness::printSweepSummary(std::cout, runner.stats());
    return 0;
}
