/**
 * @file
 * The observability determinism contract: for a fixed seed, the
 * exported trace is byte-identical whatever --jobs says, because
 * events sort by (scope, seq) -- never by wall-clock or worker
 * identity -- and exported track ids are name-sorted, not
 * intern-ordered. Two observed runs under faults also have their
 * trace and metrics bytes pinned outright.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>

#include "baseline/presets.hh"
#include "harness/json.hh"
#include "harness/report_io.hh"
#include "harness/sweep.hh"
#include "nn/models.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "rt/hetero_runtime.hh"
#include "sim/hash.hh"

using namespace hpim;
using harness::ExperimentPoint;
using harness::SweepOptions;
using harness::SweepRunner;

namespace {

/** Small but real grid: full simulations, three system kinds. */
std::vector<ExperimentPoint>
smallGrid()
{
    std::vector<ExperimentPoint> points;
    for (auto kind : {baseline::SystemKind::HeteroPim,
                      baseline::SystemKind::CpuOnly,
                      baseline::SystemKind::ProgrPimOnly}) {
        for (auto model :
             {nn::ModelId::Word2vec, nn::ModelId::Lstm}) {
            ExperimentPoint p;
            p.kind = kind;
            p.model = model;
            p.steps = 1;
            points.push_back(p);
        }
    }
    return points;
}

/** Run the grid traced with @p jobs workers; return the trace text. */
std::string
tracedSweep(std::uint32_t jobs, std::uint64_t seed)
{
    std::string path = testing::TempDir() + "hpim-trace-"
                       + std::to_string(jobs) + "-"
                       + std::to_string(seed) + ".json";
    {
        SweepOptions options;
        options.jobs = jobs;
        options.baseSeed = seed;
        options.traceFile = path;
        SweepRunner runner(options);
        auto reports = runner.run(smallGrid());
        EXPECT_EQ(reports.size(), smallGrid().size());
        // Trace export happens in the runner destructor.
    }
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    return text.str();
}

/** What one observed run exported, and what its trace holds. */
struct ObservedRun
{
    std::string trace;  ///< Chrome trace JSON
    std::string report; ///< report JSON carrying the metrics snapshot
    /** "span:<track>", "outcome:<value>", "part:<value>" and
     *  "instant:<name>" for each kind of event the trace holds. */
    std::set<std::string> facts;
};

/**
 * Two steps of AlexNet on @p config with a trace session and a metrics
 * registry attached, under bank kills, transient faults, kernel stalls
 * and a throttle threshold every bank exceeds.
 */
ObservedRun
observedRun(rt::SystemConfig config)
{
    config.faults.enabled = true;
    config.faults.seed = 3;
    config.faults.killBanks = 8;
    config.faults.killSpreadSec = 2e-3;
    config.faults.transientRatePerOp = 0.05;
    config.faults.stallRatePerOp = 0.05;
    config.faults.throttleTempC = 40.0;
    nn::Graph graph = nn::buildModel(nn::ModelId::AlexNet);

    ObservedRun run;
    obs::MetricsRegistry registry;
    registry.attach();
    obs::TraceSession session;
    session.attach();
    rt::ExecutionReport report =
        rt::HeteroRuntime(config).train(graph, 2).execution;
    report.metrics = registry.snapshot();
    session.detach();
    registry.detach();

    std::ostringstream chrome;
    session.exportChromeTrace(chrome);
    run.trace = chrome.str();
    run.report = harness::jsonString(report);

    const std::vector<std::string> tracks = session.trackNames();
    for (const obs::TraceEvent &event : session.sortedEvents()) {
        if (event.kind == obs::EventKind::Span) {
            run.facts.insert("span:" + tracks[event.track]);
        } else if (event.kind == obs::EventKind::Instant) {
            run.facts.insert("instant:" + event.name);
        }
        for (const obs::TraceArg &arg : event.args) {
            if (arg.key == "outcome" || arg.key == "part") {
                std::string fact = arg.key;
                fact += ':';
                fact += std::get<std::string>(arg.value);
                run.facts.insert(fact);
            }
        }
    }
    return run;
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << "0x" << std::hex << std::setw(16) << std::setfill('0')
        << value << "ULL";
    return out.str();
}

} // namespace

TEST(ObsDeterminism, TracedRunBytesArePinned)
{
    // The bytes a traced run exports, not merely their agreement
    // between runs: any change to a span, instant, counter or metric
    // the executor records -- its name, arguments, time or order --
    // moves a pin.
    ObservedRun rc = observedRun(baseline::makeConfig(
        baseline::SystemKind::HeteroPim));
    ObservedRun host =
        observedRun(baseline::makeHetero(true, false, true));
    EXPECT_EQ(hex(sim::hashString(rc.trace)),
              hex(0x3d7167bd688fd570ULL));
    EXPECT_EQ(hex(sim::hashString(rc.report)),
              hex(0xb3c34e4d7bb86fafULL));
    EXPECT_EQ(hex(sim::hashString(host.trace)),
              hex(0xf20e1c6c8c7f4848ULL));
    EXPECT_EQ(hex(sim::hashString(host.report)),
              hex(0xf2450a374dc08391ULL));

    // The pins cover every kind of executor event, from both runs.
    std::set<std::string> facts = rc.facts;
    facts.insert(host.facts.begin(), host.facts.end());
    for (const char *fact :
         {"span:cpu", "span:progr", "span:fixed", "outcome:stall",
          "outcome:fault", "part:rc-control", "part:host-driven",
          "instant:fault.transient", "instant:fault.stall",
          "instant:bank.failed", "instant:throttle.start"}) {
        EXPECT_TRUE(facts.count(fact)) << fact;
    }
}

TEST(ObsDeterminism, TraceBytesIdenticalAcrossJobs1And8)
{
    std::string serial = tracedSweep(1, 1234);
    std::string parallel = tracedSweep(8, 1234);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(ObsDeterminism, TraceBytesIdenticalAcrossReruns)
{
    EXPECT_EQ(tracedSweep(4, 99), tracedSweep(4, 99));
}

TEST(ObsDeterminism, TraceIsValidChromeTraceJson)
{
    std::string text = tracedSweep(2, 7);
    auto doc = harness::json::parse(text); // throws on violation
    ASSERT_TRUE(doc.isObject());
    const auto &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_GT(events.size(), 0u);
    std::size_t spans = 0, metadata = 0;
    for (const auto &event : events.elements()) {
        const std::string_view ph = event.at("ph").asString();
        if (ph == "X")
            ++spans;
        else if (ph == "M")
            ++metadata;
        // Every event addresses a (pid, tid) pair.
        event.at("pid").asUInt64();
        event.at("tid").asUInt64();
    }
    EXPECT_GT(spans, 0u);
    EXPECT_GT(metadata, 0u);
}

TEST(ObsDeterminism, SweepPointsRecordUnderTheirOwnScopes)
{
    std::string text = tracedSweep(8, 5);
    auto doc = harness::json::parse(text);
    std::size_t max_pid = 0;
    for (const auto &event : doc.at("traceEvents").elements())
        max_pid = std::max<std::size_t>(max_pid,
                                        event.at("pid").asUInt64());
    // 6 points -> scopes 1..6 (scope 0 is the main run).
    EXPECT_EQ(max_pid, smallGrid().size());
}

TEST(ObsDeterminism, BenchOutputUnaffectedByTracing)
{
    // The same sweep with and without a trace session attached must
    // produce identical reports (tracing is observation, never
    // perturbation).
    auto run = [](bool traced) {
        std::string path =
            testing::TempDir() + "hpim-trace-perturb.json";
        SweepOptions options;
        options.jobs = 2;
        options.baseSeed = 42;
        if (traced)
            options.traceFile = path;
        std::ostringstream digest;
        {
            SweepRunner runner(options);
            auto reports = runner.run(smallGrid());
            for (const auto &report : reports)
                digest << report.configName << ' '
                       << report.workloadName << ' '
                       << report.makespanSec << ' '
                       << report.totalEnergyJ << '\n';
            // Trace export happens in the runner destructor.
        }
        if (traced) {
            EXPECT_EQ(std::remove(path.c_str()), 0) << path;
        }
        return digest.str();
    };
    std::string untraced = run(false);
    std::string traced = run(true);
    EXPECT_EQ(untraced, traced);
}
