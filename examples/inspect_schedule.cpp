/**
 * @file
 * Developer tooling tour: record the runtime's schedule for an
 * AlexNet step, export its timeline as Chrome-trace JSON (load it in
 * chrome://tracing or Perfetto, or summarize it with hpim_trace),
 * export the run report as CSV/JSON, and print the generated OpenCL-C
 * for one complex op.
 *
 *   $ ./examples/inspect_schedule [out_dir]
 */

#include <fstream>
#include <iostream>

#include "baseline/presets.hh"
#include "cl/codegen.hh"
#include "harness/failpoint.hh"
#include "harness/report_io.hh"
#include "sim/logging.hh"
#include "nn/models.hh"
#include "obs/trace.hh"
#include "rt/executor.hh"
#include "rt/hetero_runtime.hh"
#include "rt/schedule_trace.hh"

int
main(int argc, char **argv)
{
    using namespace hpim;

    std::string out_dir = argc > 1 ? argv[1] : ".";

    // ---- Record a scheduled run: the ScheduleTrace gives per-device
    //      busy time, the attached TraceSession the full timeline.
    auto config = baseline::makeConfig(baseline::SystemKind::HeteroPim);
    auto graph = nn::buildAlexNet();

    rt::HeteroRuntime runtime(config);
    auto prepared = runtime.train(graph, 1); // profile + selection
    rt::Executor executor(config, &prepared.selection);
    rt::ScheduleTrace trace;
    executor.attachTrace(&trace);
    obs::TraceSession timeline;
    timeline.attach();
    auto report = executor.run(graph, 2);
    timeline.detach();

    std::cout << "recorded " << trace.size()
              << " scheduled intervals over "
              << report.makespanSec * 1e3 << " ms\n";
    std::cout << "device busy seconds from the trace:\n";
    for (auto placement :
         {rt::PlacedOn::Cpu, rt::PlacedOn::FixedPool,
          rt::PlacedOn::ProgrPim, rt::PlacedOn::ProgrRecursive}) {
        std::cout << "  " << rt::placedOnName(placement) << ": "
                  << trace.busySeconds(placement) << " s\n";
    }

    try {
        timeline.exportChromeTrace(out_dir + "/schedule.json");
    } catch (const obs::TraceExportError &e) {
        fatal("cannot export the timeline: ", e.what());
    }
    std::cout << "wrote " << out_dir << "/schedule.json ("
              << timeline.eventCount()
              << " events; chrome://tracing)\n";

    // ---- Report export.
    try {
        std::ofstream rep_csv(out_dir + "/report.csv");
        harness::writeCsv(rep_csv, {report});
        std::ofstream rep_json(out_dir + "/report.json");
        harness::writeJson(rep_json, report);
    } catch (const harness::IoError &e) {
        fatal("cannot export reports: ", e.what());
    }
    std::cout << "wrote " << out_dir << "/report.{csv,json}\n";

    // ---- What the programmer writes vs what the compiler emits.
    auto sources =
        cl::generateKernelSources(nn::OpType::Conv2DBackpropFilter);
    std::cout << "\n---- programmer-written kernel ("
              << sources.full.name << ") ----\n"
              << sources.full.source
              << "\n---- compiler-extracted fixed-function sub-kernel "
                 "----\n"
              << sources.fixedSubKernels[0].source
              << "\n---- rewritten programmable-PIM kernel (recursive "
                 "launch, Fig. 6) ----\n"
              << sources.progrKernel.source;
    return 0;
}
