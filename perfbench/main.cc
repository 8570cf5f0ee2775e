/**
 * @file
 * hpim_perfbench: one run of one benchmark workload.
 *
 *   hpim_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out FILE] [--socket PATH]
 *
 * Prints a table of what it measured, then, as the last line of
 * standard output, one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 * With --trace 0 the metrics are the end-to-end ones, with --trace 1
 * the per-layer ones (a layer a workload does not reach reports 0).
 * perfbench/README.md defines every metric; perfbench/run.py builds
 * this binary and is the entry point BENCHMARK.json names.
 */

#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench.hh"
#include "harness/json_writer.hh"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

constexpr const char *kUsage =
    "usage: hpim_perfbench --workload "
    "sweep_builtin|sweep_user_graphs|sweep_faults|serve\n"
    "                      --seed N --seconds S --trace 0|1\n"
    "                      [--trace-out FILE] [--socket PATH]\n";

struct MetricName
{
    const char *name;
    const char *unit;
};

/** The per-layer metrics every traced run reports, in order. */
constexpr MetricName kPerLayer[] = {
    {"nn.graph_io.parse_ms", "ms"},
    {"nn.graph_io.parse_mb_per_s", "MB/s"},
    {"nn.graph_io.docs", "count"},
    {"nn.build_ms", "ms"},
    {"rt.prepare_ms", "ms"},
    {"rt.prepare.calls", "count"},
    {"rt.executor_ms", "ms"},
    {"rt.executor.ns_per_sim_op", "ns"},
    {"rt.executor.sim_ops", "count"},
    {"rt.sim.host_launches", "count"},
    {"rt.sim.recursive_launches", "count"},
    {"rt.sim.retries", "count"},
    {"rt.sim.ops_degraded", "count"},
    {"rt.sim.transient_faults", "count"},
    {"rt.sim.kernel_stalls", "count"},
    {"rt.sim.banks_failed", "count"},
    {"rt.sim.report_digest", "hash"},
    {"sim.memo.hits", "count"},
    {"sim.memo.misses", "count"},
    {"sim.memo.partial_hits", "count"},
    {"sim.memo.evictions", "count"},
    {"sim.memo.lookups", "count"},
    {"sim.memo.hit_ratio", "ratio"},
    {"gpu.model_ms", "ms"},
    {"harness.report_io.encode_ms", "ms"},
    {"harness.report_io.bytes", "bytes"},
    {"harness.sweep.busy_ratio", "ratio"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.run_ms.p50", "ms"},
    {"serve.run_ms.p99", "ms"},
    {"serve.io_ms.p50", "ms"},
    {"serve.io_ms.p99", "ms"},
    {"serve.protocol.encode_us", "us"},
    {"serve.protocol.parse_us", "us"},
    {"serve.rejected_overload", "count"},
    {"serve.deadline", "count"},
    {"bench.point_ms", "ms"},
    {"bench.gen_lag_ms.p99", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.latency_samples", "count"},
    {"latency_ms.p50", "ms"},
    {"latency_ms.p99", "ms"},
    {"goodput_rps", "1/s"},
};

/** The end-to-end metrics every untraced run reports, in order. */
constexpr MetricName kEndToEnd[] = {
    {"points_per_s", "1/s"},
    {"cpu_us_per_point", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** @p measured in @p order; names it lacks report 0 when @p fill,
 *  and are an error otherwise. */
template <std::size_t N>
std::vector<Metric>
canonical(const std::vector<Metric> &measured,
          const MetricName (&order)[N], bool fill, RunResult &result)
{
    std::map<std::string, Metric> by_name;
    for (const Metric &m : measured) {
        if (!by_name.emplace(m.name, m).second)
            result.problems.push_back("metric reported twice: " + m.name);
    }
    std::vector<Metric> out;
    for (const MetricName &want : order) {
        auto it = by_name.find(want.name);
        if (it == by_name.end()) {
            if (!fill) {
                result.problems.push_back(std::string("metric missing: ")
                                          + want.name);
            }
            out.push_back({want.name, 0.0, want.unit, "not reached"});
            continue;
        }
        if (it->second.unit != want.unit)
            result.problems.push_back("unit mismatch: " + it->first);
        out.push_back(it->second);
        by_name.erase(it);
    }
    for (const auto &[name, metric] : by_name)
        result.problems.push_back("metric not declared: " + name);
    return out;
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions options;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(arg + " needs a value");
        const std::string value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = std::stoull(value);
            have_seed = true;
        } else if (arg == "--seconds") {
            options.seconds = std::stod(value);
            have_seconds = options.seconds > 0.0;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            options.trace = value == "1";
            have_trace = true;
        } else if (arg == "--trace-out") {
            options.traceOut = value;
        } else if (arg == "--socket") {
            options.socketPath = value;
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        throw std::invalid_argument(
            "--workload, --seed, --seconds (> 0) and --trace are required");
    return options;
}

void
printTable(const std::string &workload, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("%-18s %-30s %16.6g %-6s %s\n", workload.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str(),
                    m.note.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    try {
        options = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "hpim_perfbench: " << e.what() << "\n" << kUsage;
        return 2;
    }

    RunResult result;
    try {
        if (options.workload == "serve") {
            if (options.socketPath.empty())
                throw std::invalid_argument("serve needs --socket");
            result = perfbench::runServe(options);
        } else {
            result = perfbench::runSweepWorkload(options);
        }
    } catch (const std::exception &e) {
        std::cerr << "hpim_perfbench: " << e.what() << "\n";
        return 1;
    }

    const std::vector<Metric> metrics =
        options.trace ? canonical(result.perLayer, kPerLayer, true, result)
                      : canonical(result.endToEnd, kEndToEnd, false, result);
    for (const std::string &note : result.notes)
        std::printf("%-18s %s\n", options.workload.c_str(), note.c_str());
    printTable(options.workload, metrics);
    for (const std::string &problem : result.problems)
        std::fprintf(stderr, "hpim_perfbench: %s\n", problem.c_str());

    std::ostringstream line;
    {
        hpim::harness::json::Writer writer(line);
        writer.beginObject();
        writer.field("correct", result.failed == 0 && result.problems.empty());
        writer.field("attempted", result.attempted);
        writer.field("failed", result.failed);
        writer.key("metrics").beginObject();
        for (const Metric &m : metrics) {
            writer.key(m.name).beginObject();
            writer.field("value", m.value);
            writer.field("unit", m.unit);
            writer.endObject();
        }
        writer.endObject();
        writer.endObject();
    }
    std::fflush(stdout);
    std::cout << line.str() << std::endl;
    return 0;
}
