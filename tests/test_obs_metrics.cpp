/**
 * @file
 * Unit tests for obs::MetricsRegistry and the serialization of its
 * snapshot through the versioned report (schema v2 "metrics" array).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "harness/report_io.hh"
#include "obs/metrics.hh"
#include "rt/execution_report.hh"

using namespace hpim;
using obs::MetricKind;
using obs::MetricSample;
using obs::MetricsRegistry;

TEST(ObsMetrics, NoRegistryAttachedByDefault)
{
    EXPECT_EQ(MetricsRegistry::current(), nullptr);
}

TEST(ObsMetrics, AttachDetachInstallTheGlobal)
{
    MetricsRegistry registry;
    registry.attach();
    EXPECT_EQ(MetricsRegistry::current(), &registry);
    registry.detach();
    EXPECT_EQ(MetricsRegistry::current(), nullptr);
}

TEST(ObsMetrics, CounterAccumulates)
{
    MetricsRegistry registry;
    auto &c = registry.counter("rt.ops");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);
    // Same name returns the same instrument.
    EXPECT_EQ(&registry.counter("rt.ops"), &c);
}

TEST(ObsMetrics, GaugeKeepsLastWrite)
{
    MetricsRegistry registry;
    auto &g = registry.gauge("capacity");
    g.set(100.0);
    g.set(42.5);
    EXPECT_EQ(g.value(), 42.5);
}

TEST(ObsMetrics, HistogramTracksCountSumMinMaxAndBuckets)
{
    MetricsRegistry registry;
    auto &h = registry.histogram("latency");
    h.observe(1.0);  // ilogb 0  -> bucket 64
    h.observe(3.0);  // ilogb 1  -> bucket 65
    h.observe(0.25); // ilogb -2 -> bucket 62
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 4.25);
    EXPECT_EQ(h.min(), 0.25);
    EXPECT_EQ(h.max(), 3.0);
    auto buckets = h.buckets();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_EQ(buckets[0].index, 62u);
    EXPECT_EQ(buckets[1].index, 64u);
    EXPECT_EQ(buckets[2].index, 65u);
    for (const auto &bucket : buckets)
        EXPECT_EQ(bucket.count, 1u);
}

TEST(ObsMetrics, HistogramDegenerateValuesLandInBucketZero)
{
    MetricsRegistry registry;
    auto &h = registry.histogram("edge");
    h.observe(0.0);
    h.observe(std::numeric_limits<double>::infinity());
    h.observe(std::nan(""));
    auto buckets = h.buckets();
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_EQ(buckets[0].index, 0u);
    EXPECT_EQ(buckets[0].count, 3u);
}

TEST(ObsMetrics, KindCollisionIsFatal)
{
    MetricsRegistry registry;
    registry.counter("x");
    EXPECT_DEATH(registry.gauge("x"), "kind");
}

TEST(ObsMetrics, SnapshotIsSortedByName)
{
    MetricsRegistry registry;
    registry.counter("zeta").add(1);
    registry.gauge("alpha").set(2.0);
    registry.histogram("mid").observe(1.0);
    auto samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].name, "alpha");
    EXPECT_EQ(samples[1].name, "mid");
    EXPECT_EQ(samples[2].name, "zeta");
    EXPECT_EQ(samples[0].kind, MetricKind::Gauge);
    EXPECT_EQ(samples[2].count, 1u);
}

TEST(ObsMetrics, ConcurrentUpdatesAreLossless)
{
    MetricsRegistry registry;
    auto &c = registry.counter("hits");
    auto &h = registry.histogram("obs");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&c, &h] {
            for (int i = 0; i < 10000; ++i) {
                c.add(1);
                h.observe(2.0);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(c.value(), 40000u);
    EXPECT_EQ(h.count(), 40000u);
    EXPECT_EQ(h.sum(), 80000.0);
    auto buckets = h.buckets();
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_EQ(buckets[0].count, 40000u);
}

// ---- Snapshot -> report -> JSON -> report round trip. -------------

namespace {

rt::ExecutionReport
reportWithLiveSnapshot()
{
    MetricsRegistry registry;
    registry.counter("rt.ops.cpu").add(12);
    registry.gauge("rt.fixed_capacity").set(444.0);
    auto &h = registry.histogram("mem.request_latency_s");
    h.observe(32e-9);
    h.observe(64e-9);
    h.observe(48e-9);

    rt::ExecutionReport report;
    report.configName = "Hetero PIM";
    report.workloadName = "AlexNet";
    report.metrics = registry.snapshot();
    return report;
}

} // namespace

TEST(ObsMetrics, RegistrySnapshotRoundTripsThroughReportJson)
{
    rt::ExecutionReport in = reportWithLiveSnapshot();
    ASSERT_EQ(in.metrics.size(), 3u);
    rt::ExecutionReport out = harness::readJson(harness::jsonString(in));
    EXPECT_EQ(out.metrics, in.metrics);
}

TEST(ObsMetrics, ReportJsonWithMetricsIsStableUnderReserialization)
{
    // The journal embeds report JSON verbatim, so serialize ->
    // parse -> serialize must be byte-identical with metrics present.
    std::string once = harness::jsonString(reportWithLiveSnapshot());
    EXPECT_EQ(harness::jsonString(harness::readJson(once)), once);
}

TEST(ObsMetrics, ParserRejectsBadMetricKind)
{
    std::string text = harness::jsonString(reportWithLiveSnapshot());
    auto pos = text.find("\"kind\":\"counter\"");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::strlen("\"kind\":\"counter\""),
                 "\"kind\":\"babbage\"");
    EXPECT_THROW(harness::readJson(text), harness::ParseError);
}

TEST(ObsMetrics, ParserRejectsOutOfRangeBucketIndex)
{
    rt::ExecutionReport report;
    MetricSample bad;
    bad.name = "h";
    bad.kind = MetricKind::Histogram;
    bad.count = 1;
    bad.sum = bad.min = bad.max = 1.0;
    bad.buckets = {{static_cast<std::uint32_t>(
                        obs::kHistogramBuckets),
                    1}};
    report.metrics = {bad};
    std::string text = harness::jsonString(report);
    EXPECT_THROW(harness::readJson(text), harness::ParseError);
}
