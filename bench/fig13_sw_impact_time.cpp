/**
 * @file
 * Paper Fig. 13: isolating the software (runtime) impact on execution
 * time. Compares Progr PIM, Fixed PIM, and Hetero PIM hardware without
 * RC/OP, then adds RC, OP, and RC+OP. Expectations: Hetero hardware
 * alone beats Progr/Fixed by up to 8.5x but only 7%-30% over Fixed;
 * RC+OP improves Hetero by up to 3.8x.
 *
 * Accepts every sweep-engine flag (parseSweepArgs): --jobs, --seed,
 * --journal, and --shard i/N for distributed runs whose shard
 * journals hpim_merge fuses back into the single-process table
 * (docs/SWEEP_ENGINE.md).
 */

#include <iostream>

#include "baseline/presets.hh"
#include "harness/graph_workloads.hh"
#include "harness/sweep.hh"
#include "harness/table_printer.hh"
#include "nn/models.hh"
#include "rt/hetero_runtime.hh"
#include "sim/hash.hh"

namespace {

hpim::rt::ExecutionReport
runHetero(bool sched, bool rc, bool op, hpim::nn::ModelId model)
{
    auto config = hpim::baseline::makeHetero(sched, rc, op);
    config.steps = 4;
    hpim::rt::HeteroRuntime runtime(config);
    return runtime.train(hpim::nn::buildModel(model)).execution;
}

/** The six columns of Figs. 13/14, in table order. */
hpim::rt::ExecutionReport
runVariant(hpim::nn::ModelId model, std::size_t variant)
{
    using hpim::baseline::SystemKind;
    switch (variant) {
      case 0:
        return hpim::baseline::runSystem(SystemKind::ProgrPimOnly,
                                         model);
      case 1:
        return hpim::baseline::runSystem(SystemKind::FixedPimOnly,
                                         model);
      case 2: return runHetero(true, false, false, model);
      case 3: return runHetero(true, true, false, model);
      case 4: return runHetero(true, false, true, model);
      default: return runHetero(true, true, true, model);
    }
}

constexpr std::size_t numVariants = 6;

} // namespace

int
main(int argc, char **argv)
{
    using namespace hpim;
    using baseline::SystemKind;
    using harness::fmt;
    using harness::fmtRatio;

    harness::banner(std::cout,
                    "Fig. 13: execution time w/ and w/o RC and OP");

    harness::TablePrinter table(
        {"model", "Progr PIM", "Fixed PIM", "Hetero (no RC/OP)",
         "Hetero +RC", "Hetero +OP", "Hetero +RC+OP",
         "Fixed/no-RC-OP [1.07-1.3x]", "no-RC-OP/full [<=3.8x]"});

    harness::SweepOptions options = harness::parseSweepArgs(argc, argv);
    auto user_graphs = harness::loadGraphWorkloads(options.graphFiles);
    harness::SweepRunner runner(std::move(options));
    auto models = nn::cnnModels();
    std::uint64_t grid_hash =
        sim::hashString("fig13 models x variants v1");
    for (auto model : models)
        grid_hash =
            sim::hashU64(static_cast<std::uint64_t>(model), grid_hash);
    grid_hash = sim::hashU64(numVariants, grid_hash);
    auto reports = runner.mapReports(
        models.size() * numVariants, grid_hash,
        [&models](std::size_t i, sim::Rng &) {
            return runVariant(models[i / numVariants],
                              i % numVariants);
        });

    for (std::size_t m = 0; m < models.size(); ++m) {
        nn::ModelId model = models[m];
        const auto *row = &reports[m * numVariants];
        const auto &progr = row[0];
        const auto &fixed = row[1];
        const auto &none = row[2];
        const auto &rc = row[3];
        const auto &op = row[4];
        const auto &both = row[5];
        table.addRow({nn::modelName(model),
                      fmt(progr.stepSec * 1e3, 1),
                      fmt(fixed.stepSec * 1e3, 1),
                      fmt(none.stepSec * 1e3, 1),
                      fmt(rc.stepSec * 1e3, 1),
                      fmt(op.stepSec * 1e3, 1),
                      fmt(both.stepSec * 1e3, 1),
                      fmtRatio(fixed.stepSec / none.stepSec),
                      fmtRatio(none.stepSec / both.stepSec)});
    }
    table.print(std::cout);
    harness::runGraphAppendix(std::cout, runner, user_graphs,
                              {SystemKind::ProgrPimOnly,
                               SystemKind::FixedPimOnly,
                               SystemKind::HeteroPim});
    harness::printSweepSummary(std::cout, runner.stats());
    return 0;
}
