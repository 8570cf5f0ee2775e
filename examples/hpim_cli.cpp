/**
 * @file
 * hpim_cli -- argument-driven simulation runner.
 *
 * Usage:
 *   hpim_cli [--model NAME | --graph FILE] [--system NAME] [--steps N]
 *            [--freq-scale F] [--progr-pims N] [--no-rc] [--no-op]
 *            [--fault-rate R] [--kill-banks N] [--fault-seed S]
 *            [--timeout-ms MS] [--connect SOCK] [--no-metrics]
 *            [--csv] [--json] [--summary] [--dot] [--trace FILE]
 *            [--dump-graph FILE] [--dry-run]
 *            [--list-models] [--list-graph-ops]
 *
 * --graph FILE runs a user workload: a versioned JSON graph document
 * (docs/GRAPHS.md) built with nn::Builder / nn::GraphIo instead of a
 * built-in --model. Parse/validation failures exit 1 with a typed
 * "graph parse error" naming the offending field and line -- never a
 * crash. --dump-graph FILE serializes the selected workload (either
 * form) back to a graph document; with --model that is how built-ins
 * are exported. --dry-run stops after loading/validating (and any
 * --summary/--dot/--dump-graph output) without simulating. A workload
 * whose simulated time would pass the 64-bit picosecond clock (about
 * 1.845e7 s) also exits 1 with a typed error.
 *
 * --trace FILE writes a Chrome/Perfetto timeline of the run
 * (docs/OBSERVABILITY.md). A MetricsRegistry is attached for every
 * local run unless --no-metrics, so --json reports carry the
 * component metrics snapshot. Neither observer changes the run: it
 * takes the same memoized path (sim::MemoCache) as an unobserved one.
 *
 * --timeout-ms MS bounds the run: once the budget is spent the
 * simulation unwinds at its next phase boundary (docs/SERVING.md,
 * "Deadlines") and hpim_cli exits with code 124 (the coreutils
 * timeout(1) convention).
 *
 * --connect SOCK runs the simulation on an hpim_serve daemon instead
 * of in-process: the same flags are sent over the wire, the response
 * is printed exactly as a local run would print it (a served --json
 * report is byte-identical to `hpim_cli --json --no-metrics`), and
 * typed rejections map to exit codes -- 124 for deadline_exceeded,
 * 75 (EX_TEMPFAIL, retryable) for overloaded/shutting_down.
 *
 * Models : vgg19 alexnet dcgan resnet50 inception3 lstm word2vec
 * Systems: cpu gpu progr fixed hetero neurocube
 *
 * --fault-rate/--kill-banks arm the resilience layer
 * (docs/RESILIENCE.md): transient per-op fault rate R and N
 * fixed-function banks killed mid-run, schedule drawn from
 * --fault-seed. Not available with --system gpu (the analytic GPU
 * model has no fault layer).
 *
 * Examples:
 *   hpim_cli --model resnet50 --system hetero --steps 8 --json
 *   hpim_cli --model vgg19 --system hetero --freq-scale 4 --csv
 *   hpim_cli --model alexnet --kill-banks 8 --fault-rate 0.001
 *   hpim_cli --connect /tmp/hpim.sock --model alexnet --json
 */

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "harness/failpoint.hh"
#include "harness/report_io.hh"
#include "harness/sweep.hh"
#include "harness/table_printer.hh"
#include "harness/thread_pool.hh"
#include "nn/graph_io.hh"
#include "nn/models.hh"
#include "nn/summary.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "rt/executor.hh"
#include "serve/client.hh"
#include "serve/simulate.hh"
#include "sim/config.hh"
#include "sim/deadline.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace {

using namespace hpim;

/** Exit code for a spent --timeout-ms budget (timeout(1) style). */
constexpr int kDeadlineExitCode = 124;

const char *const kUsage =
    "usage: hpim_cli [--model NAME | --graph FILE] [--system NAME]\n"
    "  [--steps N] [--freq-scale F] [--progr-pims N]\n"
    "  [--no-rc] [--no-op] [--fault-rate R]\n"
    "  [--kill-banks N] [--fault-seed S]\n"
    "  [--timeout-ms MS] [--connect SOCK] [--no-metrics]\n"
    "  [--csv] [--json] [--summary] [--dot] [--trace FILE]\n"
    "  [--dump-graph FILE] [--dry-run]\n"
    "  [--list-models]      print the built-in model tokens\n"
    "  [--list-graph-ops]   print the graph-document op types\n"
    "  [--failpoints SPEC]  arm deterministic host-IO fault\n"
    "                       injection (docs/RESILIENCE.md)";

double
parseDouble(const std::string &flag, const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size())
        fatal(flag, " expects a number, got '", text, "'\n", kUsage);
    return value;
}

/**
 * What a valid hpim_cli invocation looks like: every flag's type and
 * range. An out-of-range value or (via allowUnknown=false) any key a
 * typo smuggled into the store fails fast with the full list of
 * violations instead of silently simulating nonsense.
 */
sim::ConfigSchema
cliSchema()
{
    using sim::ConfigType;
    sim::ConfigSchema schema;
    schema.keys = {
        {"model", ConfigType::String, true, 0.0, 0.0},
        {"graph", ConfigType::String, true, 0.0, 0.0},
        {"dump_graph", ConfigType::String, true, 0.0, 0.0},
        {"dry_run", ConfigType::Bool, true, 0.0, 0.0},
        {"system", ConfigType::String, true, 0.0, 0.0},
        {"steps", ConfigType::Int, true, 1.0, 1e6},
        {"freq_scale", ConfigType::Double, true, 1.0 / 64, 128.0},
        {"progr_pims", ConfigType::Int, true, 1.0, 256.0},
        {"rc", ConfigType::Bool, true, 0.0, 0.0},
        {"op", ConfigType::Bool, true, 0.0, 0.0},
        {"fault_rate", ConfigType::Double, true, 0.0, 1.0},
        {"kill_banks", ConfigType::Int, true, 0.0, 4096.0},
        {"timeout_ms", ConfigType::Double, true, 0.0, 1e9},
        {"connect", ConfigType::String, true, 0.0, 0.0},
        {"metrics", ConfigType::Bool, true, 0.0, 0.0},
        {"csv", ConfigType::Bool, true, 0.0, 0.0},
        {"json", ConfigType::Bool, true, 0.0, 0.0},
        {"summary", ConfigType::Bool, true, 0.0, 0.0},
        {"dot", ConfigType::Bool, true, 0.0, 0.0},
        {"trace", ConfigType::String, true, 0.0, 0.0},
        {"failpoints", ConfigType::String, true, 0.0, 0.0},
    };
    return schema;
}

/** Print the built-in model tokens, one per line. */
void
listModels()
{
    for (nn::ModelId model : nn::allModels()) {
        std::cout << serve::modelToken(model) << "  "
                  << nn::modelName(model) << " (default batch "
                  << nn::defaultBatchSize(model) << ")\n";
    }
}

/** Print every graph-document op type with its offload class. */
void
listGraphOps()
{
    auto className = [](nn::OffloadClass cls) {
        switch (cls) {
          case nn::OffloadClass::FixedFunction: return "fixed-function";
          case nn::OffloadClass::Recursive: return "recursive";
          case nn::OffloadClass::ProgrammableOnly:
            return "programmable-only";
          case nn::OffloadClass::DataMovement: return "data-movement";
        }
        return "unknown";
    };
    for (std::size_t i = 0; i < nn::numOpTypes; ++i) {
        auto type = static_cast<nn::OpType>(i);
        std::cout << nn::opName(type) << "  "
                  << className(nn::opTraits(type).offloadClass)
                  << "\n";
    }
}

/** Print @p report the way the chosen output flags ask for. */
void
emitReport(const rt::ExecutionReport &report, bool csv, bool json,
           bool faults)
{
    try {
        if (csv) {
            harness::writeCsv(std::cout, {report});
            return;
        }
        if (json) {
            harness::writeJson(std::cout, report);
            std::cout << '\n';
            return;
        }
    } catch (const harness::IoError &e) {
        // The simulation finished; only the output write failed.
        fatal("cannot emit report: ", e.what());
    }
    std::vector<std::string> headers = {
        "config", "workload", "step (ms)", "op", "data mv",
        "sync", "J/step", "avg W", "fixed util"};
    std::vector<std::string> row = {
        report.configName, report.workloadName,
        harness::fmt(report.stepSec * 1e3, 2),
        harness::fmt(report.opSec * 1e3, 2),
        harness::fmt(report.dataMovementSec * 1e3, 2),
        harness::fmt(report.syncSec * 1e3, 2),
        harness::fmt(report.energyPerStepJ, 2),
        harness::fmt(report.averagePowerW, 1),
        harness::fmtPct(report.fixedUtilization * 100.0)};
    if (faults) {
        headers.insert(headers.end(),
                       {"faults", "retries", "degraded",
                        "banks lost"});
        row.insert(row.end(),
                   {std::to_string(report.transientFaults),
                    std::to_string(report.retries),
                    std::to_string(report.opsDegraded),
                    std::to_string(report.banksFailed)});
    }
    harness::TablePrinter table(headers);
    table.addRow(row);
    table.print(std::cout);
}

/** Run @p spec on the daemon at @p socket; returns the exit code. */
int
runConnected(const std::string &socket,
             const serve::SimulateSpec &spec, double timeout_ms,
             bool csv, bool json, bool faults)
{
    serve::ClientOptions options;
    options.socketPath = socket;
    // The daemon enforces the deadline; the local socket timeout
    // only guards against a wedged daemon, so leave it generous.
    if (timeout_ms > 0.0)
        options.ioTimeoutMs = timeout_ms + 10'000.0;

    serve::Request request;
    request.id = 1;
    request.kind = serve::RequestKind::Simulate;
    request.deadlineMs = timeout_ms;
    request.sim = spec;

    serve::Client client(options);
    serve::Response response;
    try {
        response = client.call(request);
    } catch (const serve::ProtocolError &e) {
        std::cerr << "hpim_cli: " << e.what() << '\n';
        return 1;
    }

    if (!response.ok) {
        std::cerr << "hpim_cli: daemon rejected the request: "
                  << serve::errorCodeName(response.code) << ": "
                  << response.message << '\n';
        switch (response.code) {
          case serve::ErrorCode::DeadlineExceeded:
            return kDeadlineExitCode;
          case serve::ErrorCode::Overloaded:
          case serve::ErrorCode::ShuttingDown:
            return harness::resumableExitCode; // retryable
          default:
            return 1;
        }
    }
    if (!response.hasReport) {
        std::cerr << "hpim_cli: daemon sent a " << response.kind
                  << " response to a simulate request\n";
        return 1;
    }
    emitReport(response.report, csv, json, faults);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Flags accumulate into a typed config and are validated against
    // cliSchema() in one pass before anything simulates.
    sim::Config cli;
    cli.set("model", "alexnet");
    cli.set("graph", "");      // empty = run the built-in model
    cli.set("dump_graph", ""); // empty = no graph export
    cli.set("dry_run", false);
    cli.set("system", "hetero");
    cli.set("steps", 4);
    cli.set("freq_scale", 1.0);
    cli.set("progr_pims", 1);
    cli.set("rc", true);
    cli.set("op", true);
    cli.set("fault_rate", 0.0);
    cli.set("kill_banks", 0);
    cli.set("timeout_ms", 0.0); // 0 = no deadline
    cli.set("connect", "");     // empty = run in-process
    cli.set("metrics", true);
    cli.set("csv", false);
    cli.set("json", false);
    cli.set("summary", false);
    cli.set("dot", false);
    cli.set("trace", "");      // empty = tracing off
    cli.set("failpoints", ""); // empty = no host-IO fault injection
    std::uint64_t fault_seed = hpim::sim::defaultSeed;
    bool model_flag_set = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            fatal_if(i + 1 >= argc, "missing value for ", arg, "\n",
                     kUsage);
            return argv[++i];
        };
        auto nextUnsigned = [&]() -> std::uint64_t {
            std::string text = next();
            std::optional<std::uint64_t> value =
                harness::parseUnsigned(text);
            if (!value)
                fatal(arg, " expects an unsigned integer, got '", text,
                      "'\n", kUsage);
            return *value;
        };
        if (arg == "--model") {
            cli.set("model", next());
            model_flag_set = true;
        }
        else if (arg == "--graph") cli.set("graph", next());
        else if (arg == "--dump-graph") cli.set("dump_graph", next());
        else if (arg == "--dry-run") cli.set("dry_run", true);
        else if (arg == "--list-models") { listModels(); return 0; }
        else if (arg == "--list-graph-ops") {
            listGraphOps();
            return 0;
        }
        else if (arg == "--system") cli.set("system", next());
        else if (arg == "--steps")
            cli.set("steps", static_cast<std::int64_t>(nextUnsigned()));
        else if (arg == "--freq-scale")
            cli.set("freq_scale", parseDouble(arg, next()));
        else if (arg == "--progr-pims")
            cli.set("progr_pims",
                    static_cast<std::int64_t>(nextUnsigned()));
        else if (arg == "--no-rc") cli.set("rc", false);
        else if (arg == "--no-op") cli.set("op", false);
        else if (arg == "--fault-rate")
            cli.set("fault_rate", parseDouble(arg, next()));
        else if (arg == "--kill-banks")
            cli.set("kill_banks",
                    static_cast<std::int64_t>(nextUnsigned()));
        else if (arg == "--fault-seed")
            fault_seed = nextUnsigned();
        else if (arg == "--timeout-ms")
            cli.set("timeout_ms", parseDouble(arg, next()));
        else if (arg == "--connect") cli.set("connect", next());
        else if (arg == "--no-metrics") cli.set("metrics", false);
        else if (arg == "--csv") cli.set("csv", true);
        else if (arg == "--json") cli.set("json", true);
        else if (arg == "--summary") cli.set("summary", true);
        else if (arg == "--dot") cli.set("dot", true);
        else if (arg == "--trace") cli.set("trace", next());
        else if (arg == "--failpoints")
            cli.set("failpoints", next());
        else if (arg == "--help" || arg == "-h") {
            std::cout << kUsage << '\n';
            return 0;
        } else {
            fatal("unknown argument '", arg, "' (try --help)\n",
                  kUsage);
        }
    }
    cli.validateOrDie(cliSchema());

    harness::configureFailPointsFromEnv();
    if (!cli.requireString("failpoints").empty()) {
        try {
            harness::configureFailPoints(
                cli.requireString("failpoints"));
        } catch (const harness::FailPointError &e) {
            fatal("--failpoints: ", e.what(), "\n", kUsage);
        }
    }

    serve::SimulateSpec spec;
    spec.model = cli.requireString("model");
    std::string graph_file = cli.requireString("graph");
    std::string dump_graph = cli.requireString("dump_graph");
    bool dry_run = cli.requireBool("dry_run");
    spec.system = cli.requireString("system");
    spec.steps =
        static_cast<std::uint32_t>(cli.requireInt("steps"));
    spec.freqScale = cli.requireDouble("freq_scale");
    spec.progrPims =
        static_cast<std::uint32_t>(cli.requireInt("progr_pims"));
    spec.rc = cli.requireBool("rc");
    spec.op = cli.requireBool("op");
    spec.faultRate = cli.requireDouble("fault_rate");
    spec.killBanks =
        static_cast<std::uint32_t>(cli.requireInt("kill_banks"));
    spec.faultSeed = fault_seed;

    double timeout_ms = cli.requireDouble("timeout_ms");
    std::string connect = cli.requireString("connect");
    bool with_metrics = cli.requireBool("metrics");
    bool csv = cli.requireBool("csv"), json = cli.requireBool("json");
    bool summary = cli.requireBool("summary");
    bool dot = cli.requireBool("dot");
    std::string trace_file = cli.requireString("trace");

    // Token validation up front (the same tables serve the daemon's
    // wire validation, so CLI and wire agree on the name space).
    fatal_if(!graph_file.empty() && model_flag_set,
             "--graph and --model are mutually exclusive; a graph "
             "document is a complete workload\n", kUsage);
    std::optional<nn::ModelId> model = serve::modelFromToken(spec.model);
    fatal_if(graph_file.empty() && !model, "unknown model '",
             spec.model, "' (", serve::modelTokenList(),
             "; or --graph FILE, see --list-models)\n", kUsage);
    fatal_if(!serve::systemFromToken(spec.system),
             "unknown system '", spec.system, "' (",
             serve::systemTokenList(), ")\n", kUsage);
    fatal_if(!graph_file.empty() && spec.system == "gpu",
             "the analytic GPU model needs per-model calibration and "
             "cannot run --graph workloads");

    bool faults = spec.faultRate > 0.0 || spec.killBanks > 0;
    fatal_if(faults && spec.system == "gpu",
             "--fault-rate/--kill-banks need a simulated system; the "
             "analytic GPU model has no fault layer");

    // Resolve the workload: a loaded user document or a built-in
    // model. User-file problems are typed errors with a clean exit,
    // never an abort -- the file is input, not program state.
    std::optional<nn::Graph> user_graph;
    if (!graph_file.empty()) {
        try {
            spec.graph = nn::readGraphFile(graph_file);
        } catch (const nn::GraphParseError &e) {
            std::cerr << "hpim_cli: " << e.what() << '\n';
            return 1;
        }
        try {
            user_graph = nn::loadGraph(spec.graph);
        } catch (const nn::GraphParseError &e) {
            std::cerr << "hpim_cli: " << e.what() << " in '"
                      << graph_file << "'\n";
            return 1;
        }
    }

    if (summary || dot || !dump_graph.empty()) {
        nn::Graph graph = user_graph
                              ? *user_graph
                              : nn::buildModel(*model);
        if (summary)
            nn::summarize(graph).print(std::cout);
        if (dot)
            nn::exportDot(graph, std::cout);
        if (!dump_graph.empty()) {
            try {
                nn::saveGraphFile(dump_graph, graph);
            } catch (const nn::GraphParseError &e) {
                std::cerr << "hpim_cli: " << e.what() << '\n';
                return 1;
            }
        }
        if (dot && !csv && !json && !summary && !dry_run)
            return 0;
    }
    if (dry_run)
        return 0;

    if (!connect.empty()) {
        // Thin-client mode: the daemon owns metrics and tracing.
        fatal_if(!trace_file.empty(),
                 "--trace traces a local run; start hpim_serve with "
                 "--trace to trace served requests");
        return runConnected(connect, spec, timeout_ms, csv, json,
                            faults);
    }

    // A single deterministic run, so unlike sweeps the registry
    // snapshot can go straight into the report (and the --json
    // output) without breaking any determinism contract. Skipped
    // with --no-metrics, which matches what a served request reports
    // (the daemon never attaches a registry to simulations).
    obs::MetricsRegistry metrics;
    if (with_metrics)
        metrics.attach();
    obs::TraceSession trace;
    if (!trace_file.empty())
        trace.attach();

    rt::ExecutionReport report;
    try {
        std::optional<sim::DeadlineScope> scope;
        if (timeout_ms > 0.0)
            scope.emplace(sim::Deadline::afterMs(timeout_ms));
        report = serve::runSimulate(spec);
    } catch (const sim::DeadlineExceeded &e) {
        std::cerr << "hpim_cli: " << e.what() << '\n';
        return kDeadlineExitCode;
    } catch (const rt::SimulationRangeError &e) {
        std::cerr << "hpim_cli: " << e.what() << '\n';
        return 1;
    }
    if (with_metrics)
        report.metrics = metrics.snapshot();

    emitReport(report, csv, json, faults);

    if (!trace_file.empty()) {
        trace.detach();
        // The report is already emitted; a lost trace artifact
        // warns on stderr but never fails the run.
        try {
            trace.exportChromeTrace(trace_file);
            // stderr so --csv/--json stdout stays clean for
            // pipelines.
            std::cerr << "[trace] wrote " << trace_file << " ("
                      << trace.eventCount() << " events)\n";
        } catch (const obs::TraceExportError &e) {
            std::cerr << "[trace] export of " << trace_file
                      << " failed: " << e.what() << '\n';
        }
    }
    return 0;
}
