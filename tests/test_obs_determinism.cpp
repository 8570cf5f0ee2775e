/**
 * @file
 * The observability determinism contract: for a fixed seed, the
 * exported trace is byte-identical whatever --jobs says, because
 * events sort by (scope, seq) -- never by wall-clock or worker
 * identity -- and exported track ids are name-sorted, not
 * intern-ordered.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/json.hh"
#include "harness/sweep.hh"
#include "obs/trace.hh"

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

} // namespace

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
        SweepRunner runner(options);
        auto reports = runner.run(smallGrid());
        std::ostringstream digest;
        for (const auto &report : reports)
            digest << report.configName << ' ' << report.workloadName
                   << ' ' << report.makespanSec << ' '
                   << report.totalEnergyJ << '\n';
        if (traced)
            std::remove(path.c_str());
        return digest.str();
    };
    std::string untraced = run(false);
    std::string traced = run(true);
    EXPECT_EQ(untraced, traced);
}
