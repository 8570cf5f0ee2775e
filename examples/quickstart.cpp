/**
 * @file
 * Quickstart: define a small CNN training step, run it through the
 * heterogeneous-PIM runtime, and read the results.
 *
 *   $ ./examples/quickstart
 *
 * Walks the full pipeline a framework integration would use:
 *   1. build a training-step graph (the unit the runtime schedules),
 *   2. pick a system configuration (the paper's Hetero PIM preset),
 *   3. train: profile -> select offload candidates -> execute,
 *   4. inspect time/energy/utilization, and compare with CPU-only.
 */

#include <iostream>

#include "baseline/presets.hh"
#include "harness/table_printer.hh"
#include "nn/builder.hh"
#include "rt/hetero_runtime.hh"

int
main()
{
    using namespace hpim;
    using harness::fmt;

    // 1. A LeNet-ish model on 32x32 inputs, batch 32. The builder
    //    emits the forward ops, the TensorFlow-style backward pass,
    //    and one ApplyAdam per parameter tensor.
    nn::CnnBuilder builder("quickstart-cnn",
                           nn::TensorShape{32, 32, 32, 3});
    builder.conv(5, 32, 1).maxPool(2, 2);
    builder.conv(5, 64, 1).maxPool(2, 2);
    builder.fc(512).dropout();
    builder.fc(10, /*relu=*/false);
    nn::Graph step = builder.finish();

    std::cout << "built '" << step.name() << "': " << step.size()
              << " ops per training step, "
              << fmt(step.totalCost().flops() / 1e9, 2)
              << " GFLOP, critical path "
              << step.criticalPathLength() << " ops\n";

    // 2. The paper's heterogeneous PIM: 444 fixed-function units +
    //    one 4-core programmable PIM on the logic die of a 32-slice
    //    3D stack, with dynamic scheduling, RC and OP enabled.
    rt::SystemConfig hetero =
        baseline::makeConfig(baseline::SystemKind::HeteroPim);
    hetero.steps = 8;

    // 3. Train. Step 1 is profiled on the CPU; the dual-index
    //    selector picks the offload candidates; the remaining steps
    //    run under the three-principle scheduler.
    rt::HeteroRuntime runtime(hetero);
    rt::TrainingResult result = runtime.train(step);

    std::cout << "\noffload candidates ("
              << result.selection->candidates.size() << " op types, "
              << fmt(result.selection->coveredTimePct, 1)
              << "% of step time):\n";
    for (const auto &ranked : result.selection->ranking) {
        if (result.selection->isCandidate(ranked.type)) {
            std::cout << "  - " << nn::opName(ranked.type) << " ("
                      << fmt(ranked.timePct, 1) << "% of time)\n";
        }
    }

    // 4. Results, next to the CPU-only baseline.
    rt::SystemConfig cpu_only =
        baseline::makeConfig(baseline::SystemKind::CpuOnly);
    cpu_only.steps = 8;
    auto cpu = rt::HeteroRuntime(cpu_only).train(step).execution;
    const auto &pim = result.execution;

    harness::TablePrinter table(
        {"system", "step (ms)", "energy/step (J)", "fixed util"});
    table.addRow({"CPU", fmt(cpu.stepSec * 1e3, 2),
                  fmt(cpu.energyPerStepJ, 3), "-"});
    table.addRow({"Hetero PIM", fmt(pim.stepSec * 1e3, 2),
                  fmt(pim.energyPerStepJ, 3),
                  harness::fmtPct(pim.fixedUtilization * 100.0)});
    table.print(std::cout);

    std::cout << "speedup: " << fmt(cpu.stepSec / pim.stepSec, 1)
              << "x, energy saving: "
              << fmt(cpu.energyPerStepJ / pim.energyPerStepJ, 1)
              << "x\n";
    return 0;
}
