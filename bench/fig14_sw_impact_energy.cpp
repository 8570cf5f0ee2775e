/**
 * @file
 * Paper Fig. 14: energy with and without RC and OP, normalized to
 * Hetero PIM with both. Expectations: Hetero hardware without runtime
 * scheduling beats Progr/Fixed PIM by up to 2.7x; RC+OP reduce Hetero
 * energy by up to 3.9x more.
 *
 * Accepts every sweep-engine flag (parseSweepArgs): --jobs, --seed,
 * --journal, and --shard i/N for distributed runs whose shard
 * journals hpim_merge fuses back into the single-process table
 * (docs/SWEEP_ENGINE.md).
 */

#include <iostream>

#include "baseline/presets.hh"
#include "harness/sweep.hh"
#include "harness/table_printer.hh"
#include "nn/models.hh"
#include "rt/hetero_runtime.hh"
#include "sim/hash.hh"

namespace {

hpim::rt::ExecutionReport
runHetero(bool rc, bool op, hpim::nn::ModelId model)
{
    auto config = hpim::baseline::makeHetero(true, rc, op);
    config.steps = 4;
    hpim::rt::HeteroRuntime runtime(config);
    return runtime.train(hpim::nn::buildModel(model)).execution;
}

/** The six columns of Fig. 14, in table order. */
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
      case 2: return runHetero(false, false, model);
      case 3: return runHetero(true, false, model);
      case 4: return runHetero(false, true, model);
      default: return runHetero(true, true, model);
    }
}

constexpr std::size_t numVariants = 6;

} // namespace

int
main(int argc, char **argv)
{
    using namespace hpim;
    using baseline::SystemKind;
    using harness::fmtRatio;

    harness::banner(std::cout,
                    "Fig. 14: energy normalized to Hetero PIM w/ RC+OP");

    harness::TablePrinter table(
        {"model", "Progr PIM", "Fixed PIM", "Hetero (no RC/OP)",
         "Hetero +RC", "Hetero +OP", "Hetero +RC+OP",
         "no-RC-OP/full [<=3.9x]"});

    harness::SweepRunner runner(harness::parseSweepArgs(argc, argv));
    auto models = nn::cnnModels();
    std::uint64_t grid_hash =
        sim::hashString("fig14 models x variants v1");
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
        double base = both.energyPerStepJ;
        table.addRow({nn::modelName(model),
                      fmtRatio(progr.energyPerStepJ / base),
                      fmtRatio(fixed.energyPerStepJ / base),
                      fmtRatio(none.energyPerStepJ / base),
                      fmtRatio(rc.energyPerStepJ / base),
                      fmtRatio(op.energyPerStepJ / base), "1.00x",
                      fmtRatio(none.energyPerStepJ / base)});
    }
    table.print(std::cout);
    harness::printSweepSummary(std::cout, runner.stats());
    return 0;
}
