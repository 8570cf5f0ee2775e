/**
 * @file
 * The three sweep workloads: sweep_builtin, sweep_user_graphs and
 * sweep_faults.
 *
 * A pass runs one workload's point stream through harness::SweepRunner
 * with the memo cache on and starting empty, as a user's sweep process
 * does, and encodes every report with harness::jsonString as a sweep
 * that writes its results would. Untraced passes call the public
 * entry points (baseline::runSystem / runSystemGraph, or
 * rt::HeteroRuntime where the grid needs a hand-built config). Traced
 * passes make the same simulation from the layers' own public calls
 * -- nn::buildModel / nn::loadGraph, Profiler::profileDelta +
 * selectOffloadCandidates ("prepare"), Executor::run -- with a span
 * around each, and must produce byte-identical reports.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "calibrate.hh"
#include "harness/report_io.hh"
#include "harness/sweep.hh"
#include "nn/graph_io.hh"
#include "rt/executor.hh"
#include "rt/hetero_runtime.hh"
#include "rt/offload_selector.hh"
#include "rt/profiler.hh"
#include "sim/hash.hh"
#include "sim/memo_cache.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using hpim::baseline::SystemKind;
using hpim::nn::Graph;
using hpim::rt::ExecutionReport;
using hpim::rt::SystemConfig;
using hpim::sim::MemoCache;

/** Sweep workers, as a user's `--jobs 2` sweep. */
constexpr std::uint32_t kJobs = 2;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;
/** Least passes of each kind a run makes, whatever --seconds says. */
constexpr std::size_t kMinPasses = 3;
/** Passes between two calibration probes last at least this long. */
constexpr double kBlockSec = 0.25;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Exact digest of every CpuParams field (the profile memo keys'
 *  "everything but the graph" half). */
std::uint64_t
cpuDigest(const hpim::cpu::CpuParams &cpu)
{
    using hpim::sim::hashDouble;
    using hpim::sim::hashU64;
    std::uint64_t h = hashDouble(cpu.frequencyHz);
    h = hashU64(static_cast<std::uint64_t>(cpu.cores), h);
    h = hashDouble(cpu.flopsPerSec, h);
    h = hashDouble(cpu.specialsPerSec, h);
    h = hashDouble(cpu.memBandwidth, h);
    h = hashDouble(cpu.opOverheadSec, h);
    h = hashDouble(cpu.dynamicPowerW, h);
    h = hashDouble(cpu.idlePowerW, h);
    return h;
}

/**
 * HeteroRuntime::train from its layers' public calls, with a span
 * around each. The selection is reused through the same process-wide
 * MemoCache (under this benchmark's own tag, keyed on every input
 * that shapes it) so a traced pass prepares exactly as often as the
 * runtime's own "rt.prepared" tier lets an untraced pass skip it.
 */
ExecutionReport
prepareAndExecute(const SystemConfig &config, const Graph &graph,
                  Tracer &tracer, std::uint64_t group)
{
    std::shared_ptr<const hpim::rt::OffloadSelection> selection;
    if (config.dynamicScheduling) {
        auto &cache = MemoCache::instance();
        const std::uint64_t cpu_key = cpuDigest(config.cpu);
        const std::uint64_t key = hpim::sim::hashDouble(
            config.offloadCoveragePct,
            hpim::sim::hashU64(cpu_key,
                               hpim::sim::hashU64(graph.signature())));
        selection = cache.find<hpim::rt::OffloadSelection>(
            key, "perfbench.prepared");
        if (selection == nullptr) {
            ScopedSpan span(&tracer, "rt.prepare", group);
            hpim::rt::Profiler profiler{hpim::cpu::CpuModel(config.cpu)};
            selection =
                std::make_shared<const hpim::rt::OffloadSelection>(
                    hpim::rt::selectOffloadCandidates(
                        profiler.profileDelta(graph, cpu_key),
                        config.offloadCoveragePct));
            cache.put(key, "perfbench.prepared", selection);
        }
    }
    ScopedSpan span(&tracer, "rt.executor", group);
    hpim::rt::Executor executor(config, selection.get());
    return executor.run(graph, config.steps);
}

Graph
tracedBuild(hpim::nn::ModelId model, Tracer &tracer, std::uint64_t group)
{
    ScopedSpan span(&tracer, "nn.build", group);
    return hpim::nn::buildModel(model);
}

/** One sweep workload: its distinct points and how to run them. */
class SweepWorkload
{
  public:
    virtual ~SweepWorkload() = default;

    /** Distinct points; references are computed for each. */
    virtual std::size_t distinct() const = 0;
    /** The points of pass @p pass, as indices into the distinct set. */
    virtual std::vector<std::size_t> pass(std::uint64_t pass) const = 0;
    /** Run a point through the public entry points. */
    virtual ExecutionReport run(std::size_t point) const = 0;
    /** Run a point from its layers' calls, recording spans. */
    virtual ExecutionReport runTraced(std::size_t point, Tracer &tracer,
                                      std::uint64_t group) const = 0;
    /** Memo-cache entry cap of a pass; 0 = unbounded. */
    virtual std::size_t cacheEntries() const { return 0; }
    /** Graph-document bytes a pass parses. */
    virtual std::uint64_t parseBytes() const { return 0; }
};

class BuiltinSweep : public SweepWorkload
{
  public:
    explicit BuiltinSweep(std::uint64_t seed)
        : _seed(seed), _grid(builtinGrid())
    {
    }

    std::size_t distinct() const override { return _grid.size(); }

    std::vector<std::size_t>
    pass(std::uint64_t pass) const override
    {
        return seededOrder(_grid.size(), _seed, "builtin-order", pass);
    }

    ExecutionReport
    run(std::size_t i) const override
    {
        const BuiltinPoint &p = _grid[i];
        if (p.featureVariant()) {
            hpim::rt::HeteroRuntime runtime(builtinVariantConfig(p));
            return runtime.train(hpim::nn::buildModel(p.model)).execution;
        }
        return hpim::baseline::runSystem(p.kind, p.model, kBuiltinSteps,
                                         p.freqScale, p.progrPims);
    }

    ExecutionReport
    runTraced(std::size_t i, Tracer &tracer,
              std::uint64_t group) const override
    {
        const BuiltinPoint &p = _grid[i];
        if (p.kind == SystemKind::Gpu) {
            // The analytic GPU model has no executor to split out.
            ScopedSpan span(&tracer, "gpu.model", group);
            return hpim::baseline::runSystem(p.kind, p.model,
                                             kBuiltinSteps);
        }
        if (p.featureVariant()) {
            const Graph graph = tracedBuild(p.model, tracer, group);
            return prepareAndExecute(builtinVariantConfig(p), graph,
                                     tracer, group);
        }
        // runSystem memoizes its model builds; mirror that reuse.
        auto &cache = MemoCache::instance();
        const auto key = static_cast<std::uint64_t>(p.model);
        std::shared_ptr<const Graph> graph =
            cache.find<Graph>(key, "perfbench.graph");
        if (graph == nullptr) {
            graph = std::make_shared<const Graph>(
                tracedBuild(p.model, tracer, group));
            cache.put(key, "perfbench.graph", graph);
        }
        SystemConfig config =
            hpim::baseline::makeConfig(p.kind, p.freqScale, p.progrPims);
        config.steps = kBuiltinSteps;
        return prepareAndExecute(config, *graph, tracer, group);
    }

  private:
    std::uint64_t _seed;
    std::vector<BuiltinPoint> _grid;
};

class FaultSweep : public SweepWorkload
{
  public:
    explicit FaultSweep(std::uint64_t seed)
        : _seed(seed), _grid(faultGrid(seed))
    {
    }

    std::size_t distinct() const override { return _grid.size(); }

    std::vector<std::size_t>
    pass(std::uint64_t pass) const override
    {
        return seededOrder(_grid.size(), _seed, "fault-order", pass);
    }

    ExecutionReport
    run(std::size_t i) const override
    {
        hpim::rt::HeteroRuntime runtime(faultConfig(_grid[i]));
        return runtime.train(hpim::nn::buildModel(_grid[i].model))
            .execution;
    }

    ExecutionReport
    runTraced(std::size_t i, Tracer &tracer,
              std::uint64_t group) const override
    {
        const Graph graph = tracedBuild(_grid[i].model, tracer, group);
        return prepareAndExecute(faultConfig(_grid[i]), graph, tracer,
                                 group);
    }

  private:
    std::uint64_t _seed;
    std::vector<FaultPoint> _grid;
};

class UserGraphSweep : public SweepWorkload
{
  public:
    explicit UserGraphSweep(std::uint64_t seed)
        : _stream(userGraphStream(seed))
    {
    }

    std::size_t distinct() const override
    {
        return _stream.distinct.size();
    }

    /** The same seeded stream every pass: eviction depends on order. */
    std::vector<std::size_t>
    pass(std::uint64_t) const override
    {
        return _stream.stream;
    }

    ExecutionReport
    run(std::size_t i) const override
    {
        const UserGraphPoint &p = _stream.distinct[i];
        return hpim::baseline::runSystemGraph(
            SystemKind::HeteroPim, hpim::nn::loadGraph(_stream.docs[p.doc]),
            1, p.freqScale, p.progrPims);
    }

    ExecutionReport
    runTraced(std::size_t i, Tracer &tracer,
              std::uint64_t group) const override
    {
        const UserGraphPoint &p = _stream.distinct[i];
        Graph graph = [&] {
            ScopedSpan span(&tracer, "nn.graph_io.parse", group);
            return hpim::nn::loadGraph(_stream.docs[p.doc]);
        }();
        SystemConfig config = hpim::baseline::makeConfig(
            SystemKind::HeteroPim, p.freqScale, p.progrPims);
        config.steps = 1;
        return prepareAndExecute(config, graph, tracer, group);
    }

    std::size_t cacheEntries() const override
    {
        return kUserGraphCacheEntries;
    }

    std::uint64_t
    parseBytes() const override
    {
        std::uint64_t bytes = 0;
        for (std::size_t i : _stream.stream)
            bytes += _stream.docs[_stream.distinct[i].doc].size();
        return bytes;
    }

  private:
    UserGraphStream _stream;
};

std::unique_ptr<SweepWorkload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "sweep_builtin")
        return std::make_unique<BuiltinSweep>(seed);
    if (name == "sweep_user_graphs")
        return std::make_unique<UserGraphSweep>(seed);
    if (name == "sweep_faults")
        return std::make_unique<FaultSweep>(seed);
    throw std::invalid_argument("unknown sweep workload '" + name + "'");
}

/** Reference encodings of every distinct point, through the plain
 *  uncached path. */
struct References
{
    std::vector<ExecutionReport> reports;
    std::vector<std::string> json;
};

References
computeReferences(const SweepWorkload &workload)
{
    References refs;
    MemoCache::setEnabled(false);
    for (std::size_t i = 0; i < workload.distinct(); ++i) {
        refs.reports.push_back(workload.run(i));
        refs.json.push_back(hpim::harness::jsonString(refs.reports.back()));
    }
    MemoCache::setEnabled(true);
    return refs;
}

/** What one pass measured. */
struct Pass
{
    std::size_t points = 0;
    double wallSec = 0.0;
    double cpuSec = 0.0;              ///< process CPU time, all threads
    double busySec = 0.0;             ///< sum of per-point wall times
    std::vector<double> pointMs;      ///< per-point wall time
    std::size_t mismatched = 0;       ///< failed or != reference
    double scale = 1.0;               ///< to reference-host time
    double cpuScale = 1.0;            ///< to reference-host CPU time
    MemoCache::Stats memo;
    std::unique_ptr<Tracer> tracer;   ///< traced passes only
};

Pass
runPass(const SweepWorkload &workload, const References &refs,
        std::uint64_t seed, std::uint64_t pass_index, std::uint32_t jobs,
        bool traced)
{
    MemoCache::instance().clear();
    hpim::harness::SweepOptions options;
    options.jobs = jobs;
    options.baseSeed = seed;
    options.simCacheMaxEntries = workload.cacheEntries();
    hpim::harness::SweepRunner runner(options);

    Pass out;
    if (traced)
        out.tracer = std::make_unique<Tracer>();
    Tracer *tracer = out.tracer.get();
    const std::vector<std::size_t> stream = workload.pass(pass_index);
    out.points = stream.size();
    out.pointMs.assign(stream.size(), 0.0);
    const double cpu_start = processCpuSec();
    const Clock::time_point start = Clock::now();
    std::vector<std::string> encoded = runner.map(
        stream.size(), [&](std::size_t i, hpim::sim::Rng &) {
            const Clock::time_point t0 = Clock::now();
            std::string json;
            if (tracer != nullptr) {
                const std::uint64_t group = (pass_index << 32) | i;
                ScopedSpan point(tracer, "point", group);
                const ExecutionReport report =
                    workload.runTraced(stream[i], *tracer, group);
                ScopedSpan encode(tracer, "harness.report_io.encode",
                                  group);
                json = hpim::harness::jsonString(report);
            } else {
                json = hpim::harness::jsonString(workload.run(stream[i]));
            }
            out.pointMs[i] =
                std::chrono::duration<double, std::milli>(Clock::now()
                                                          - t0)
                    .count();
            return json;
        });
    out.wallSec = secondsSince(start);
    out.cpuSec = processCpuSec() - cpu_start;
    out.memo = MemoCache::instance().stats();
    for (double ms : out.pointMs)
        out.busySec += ms / 1e3;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (encoded[i] != refs.json[stream[i]])
            ++out.mismatched;
    }
    return out;
}

std::string
fmtNote(const char *format, double a, double b = 0.0)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, format, a, b);
    return buf;
}

/** Median of a series plus its spread, as a note. */
Metric
medianMetric(const char *name, const std::vector<double> &values,
             const char *unit, const char *what = "passes")
{
    char note[96];
    std::snprintf(note, sizeof note, "median of %zu %s, IQR %.2f%% of median",
                  values.size(), what, 100.0 * relativeIqr(values));
    return {name, median(values), unit, note};
}

void
appendMemoMetrics(const MemoCache::Stats &memo, std::vector<Metric> &out)
{
    const std::uint64_t lookups = memo.hits + memo.misses + memo.partialHits;
    auto count = [&out](const char *name, std::uint64_t value) {
        out.push_back({name, static_cast<double>(value), "count", ""});
    };
    count("sim.memo.hits", memo.hits);
    count("sim.memo.misses", memo.misses);
    count("sim.memo.partial_hits", memo.partialHits);
    count("sim.memo.evictions", memo.evictions);
    count("sim.memo.lookups", lookups);
    out.push_back({"sim.memo.hit_ratio",
                   lookups ? static_cast<double>(memo.hits
                                                 + memo.partialHits)
                                 / static_cast<double>(lookups)
                           : 0.0,
                   "ratio", "(hits + partial hits) / lookups"});
}

} // namespace

RunResult
runSweepWorkload(const RunOptions &options)
{
    RunResult result;

    // Set-up: generate the inputs and compute every reference, several
    // times; set-ups must agree with each other byte for byte.
    std::vector<double> setup_sec;
    std::unique_ptr<SweepWorkload> workload;
    References refs;
    std::vector<double> raw_setup_sec;
    for (int k = 0; k < kSetups; ++k) {
        MemoCache::instance().clear();
        const double probe_before = probeMs(1);
        const Clock::time_point start = Clock::now();
        workload = makeWorkload(options.workload, options.seed);
        References again = computeReferences(*workload);
        raw_setup_sec.push_back(secondsSince(start));
        setup_sec.push_back(raw_setup_sec.back()
                            * referenceScale(probe_before, probeMs(1)));
        if (k > 0 && again.json != refs.json)
            result.problems.push_back("set-ups disagree on references");
        refs = std::move(again);
    }

    SimCounters counters;
    for (std::size_t i : workload->pass(0))
        counters.add(refs.reports[i], refs.json[i]);

    std::vector<Pass> untraced, traced;
    std::vector<double> point_ms;
    Pass exact;
    const Clock::time_point start = Clock::now();
    auto time_left = [&] { return secondsSince(start) < options.seconds; };
    std::uint64_t pass_index = 0;
    if (options.trace) {
        // One serial pass gives the exact memo counters.
        exact = runPass(*workload, refs, options.seed, 0, 1, false);
        result.attempted += exact.points;
        result.failed += exact.mismatched;
    }
    while (time_left() || untraced.size() < kMinPasses
           || (options.trace && traced.size() < kMinPasses)) {
        // A block of passes between two probes shares their scale.
        const std::size_t first = untraced.size();
        const double probe_before = probeMs(kJobs);
        const double cpu_probe_before = probeCpuMs(kJobs);
        const Clock::time_point block_start = Clock::now();
        do {
            untraced.push_back(runPass(*workload, refs, options.seed,
                                       pass_index, kJobs, false));
            if (options.trace) {
                traced.push_back(runPass(*workload, refs, options.seed,
                                         pass_index, kJobs, true));
            }
            ++pass_index;
        } while (secondsSince(block_start) < kBlockSec);
        const double scale = referenceScale(probe_before, probeMs(kJobs));
        const double cpu_scale =
            cpuScale(cpu_probe_before, probeCpuMs(kJobs));
        for (std::size_t i = first; i < untraced.size(); ++i) {
            untraced[i].scale = scale;
            untraced[i].cpuScale = cpu_scale;
        }
    }

    std::vector<double> points_per_s, goodput, busy_ratio, wall_untraced;
    std::vector<double> raw_points_per_s, scales;
    std::vector<double> cpu_us_per_point, raw_cpu_us;
    for (const Pass &p : untraced) {
        result.attempted += p.points;
        result.failed += p.mismatched;
        const double ref_wall = p.wallSec * p.scale;
        points_per_s.push_back(static_cast<double>(p.points) / ref_wall);
        raw_points_per_s.push_back(static_cast<double>(p.points)
                                   / p.wallSec);
        raw_cpu_us.push_back(p.cpuSec * 1e6 / static_cast<double>(p.points));
        cpu_us_per_point.push_back(raw_cpu_us.back() * p.cpuScale);
        goodput.push_back(static_cast<double>(p.points - p.mismatched)
                          / ref_wall);
        busy_ratio.push_back(p.busySec / (kJobs * p.wallSec));
        wall_untraced.push_back(p.wallSec);
        scales.push_back(p.scale);
        for (double ms : p.pointMs)
            point_ms.push_back(ms * p.scale);
    }
    result.notes.push_back(fmtNote(
        "raw host time: points_per_s %.6g, cpu_us_per_point %.6g",
        median(raw_points_per_s), median(raw_cpu_us)));
    result.notes.push_back(fmtNote("raw host time: setup_s %.6g",
                                   median(raw_setup_sec)));
    result.notes.push_back(fmtNote(
        "reference scale: median %.4f, IQR %.2f%% of median",
        median(scales), 100.0 * relativeIqr(scales)));
    for (const Pass &p : traced) {
        result.attempted += p.points;
        result.failed += p.mismatched;
    }

    result.endToEnd = {
        medianMetric("points_per_s", points_per_s, "1/s"),
        medianMetric("cpu_us_per_point", cpu_us_per_point, "us"),
        medianMetric("setup_s", setup_sec, "s", "set-ups"),
        {"peak_rss_mb", peakRssMb(), "MB", "getrusage ru_maxrss"},
    };
    if (!percentileSupported(point_ms.size(), 0.99))
        result.notes.push_back("warning: latency_ms.p99 has under 10 "
                               "samples beyond it");
    result.notes.push_back(fmtNote(
        "failed_frac %.6f of %.0f points",
        result.attempted ? static_cast<double>(result.failed)
                               / static_cast<double>(result.attempted)
                         : 0.0,
        static_cast<double>(result.attempted)));

    if (!options.trace)
        return result;

    // Per-layer split: median per traced pass of each layer's self time.
    std::map<std::string, std::vector<double>> self_ms;
    std::map<std::string, std::vector<double>> calls;
    std::vector<double> wall_traced;
    for (const Pass &p : traced) {
        wall_traced.push_back(p.wallSec);
        for (const auto &[name, ms] : p.tracer->selfMs())
            self_ms[name].push_back(ms);
        std::map<std::string, double> count;
        for (const Span &span : p.tracer->spans())
            count[span.name] += 1.0;
        for (const char *name : {"rt.prepare", "nn.graph_io.parse"})
            calls[name].push_back(count[name]);
    }
    auto layer_ms = [&](const char *name) {
        auto it = self_ms.find(name);
        return it == self_ms.end() ? 0.0 : median(it->second);
    };
    const double parse_ms = layer_ms("nn.graph_io.parse");
    const double executor_ms = layer_ms("rt.executor");
    const double parse_bytes =
        static_cast<double>(workload->parseBytes());
    std::vector<Metric> &layers = result.perLayer;
    layers.push_back({"nn.graph_io.parse_ms", parse_ms, "ms", "per pass"});
    layers.push_back({"nn.graph_io.parse_mb_per_s",
                      parse_ms > 0 ? parse_bytes / 1e6 / (parse_ms / 1e3)
                                   : 0.0,
                      "MB/s", ""});
    layers.push_back({"nn.graph_io.docs", median(calls["nn.graph_io.parse"]),
                      "count", "per pass"});
    layers.push_back({"nn.build_ms", layer_ms("nn.build"), "ms",
                      "per pass"});
    layers.push_back({"rt.prepare_ms", layer_ms("rt.prepare"), "ms",
                      "per pass"});
    layers.push_back({"rt.prepare.calls", median(calls["rt.prepare"]),
                      "count", "per pass"});
    layers.push_back({"rt.executor_ms", executor_ms, "ms", "per pass"});
    layers.push_back(
        {"rt.executor.ns_per_sim_op",
         counters.simOps ? executor_ms * 1e6
                               / static_cast<double>(counters.simOps)
                         : 0.0,
         "ns", ""});
    counters.appendMetrics(layers);
    appendMemoMetrics(exact.memo, layers);
    layers.push_back({"harness.report_io.encode_ms",
                      layer_ms("harness.report_io.encode"), "ms",
                      "per pass"});
    layers.push_back({"harness.report_io.bytes",
                      static_cast<double>(counters.encodedBytes), "bytes",
                      "per pass"});
    layers.push_back(medianMetric("harness.sweep.busy_ratio", busy_ratio,
                                   "ratio"));
    layers.push_back({"bench.point_ms", layer_ms("point"), "ms",
                      "benchmark's own per-point self time, per pass"});
    layers.push_back({"gpu.model_ms", layer_ms("gpu.model"), "ms",
                      "per pass"});
    layers.push_back(
        {"bench.trace_overhead_pct",
         100.0 * (median(wall_traced) / median(wall_untraced) - 1.0), "%",
         fmtNote("median wall of %.0f traced vs %.0f untraced passes",
                 static_cast<double>(wall_traced.size()),
                 static_cast<double>(wall_untraced.size()))});
    layers.push_back({"bench.latency_samples",
                      static_cast<double>(point_ms.size()), "count", ""});
    const std::string samples =
        fmtNote("per-point host time, untraced passes, %.0f points",
                static_cast<double>(point_ms.size()));
    layers.push_back({"latency_ms.p50", percentile(point_ms, 0.50), "ms",
                      samples});
    layers.push_back({"latency_ms.p99", percentile(point_ms, 0.99), "ms",
                      samples});
    layers.push_back(medianMetric("goodput_rps", goodput, "1/s"));
    if (!options.traceOut.empty())
        traced.back().tracer->writeChromeTrace(options.traceOut);
    return result;
}

} // namespace perfbench
