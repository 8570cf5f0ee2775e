/**
 * @file
 * Self-tests of the benchmark's own code: the order statistics, the
 * span recorder's self-time rule, and the seeded input generators
 * (identical for a fixed seed; every generated graph document loads
 * under the strict nn::loadGraph).
 *
 *   cmake --build .bench_build --target perfbench_selftest
 *   .bench_build/perfbench_selftest
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "nn/graph_io.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles)
{
    // Expected values from CPython 3.11 statistics.quantiles(v, n=4).
    struct Case
    {
        std::vector<double> values;
        std::array<double, 3> expected;
    } cases[] = {
        {{1, 2}, {0.75, 1.5, 2.25}},
        {{3, 1, 2}, {1.0, 2.0, 3.0}},
        {{1, 2, 3, 4}, {1.25, 2.5, 3.75}},
        {{5, 1, 4, 2, 3}, {1.5, 3.0, 4.5}},
        {{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, {27.5, 55.0, 82.5}},
        {{2.5, 0.5, 7.25, 1.0, 3.0, 9.5, 4.0}, {1.0, 3.0, 7.25}},
    };
    for (const Case &c : cases) {
        const std::array<double, 3> q = quartiles(c.values);
        for (int i = 0; i < 3; ++i)
            EXPECT_DOUBLE_EQ(q[i], c.expected[i]) << "quartile " << i + 1;
    }
}

TEST(Stats, RelativeIqrIsQuartileDistanceOverMedian)
{
    EXPECT_DOUBLE_EQ(relativeIqr({10, 20, 30, 40, 50, 60, 70, 80, 90, 100}),
                     (82.5 - 27.5) / 55.0);
    EXPECT_DOUBLE_EQ(relativeIqr({0, 0, 0}), 0.0);
}

TEST(Stats, PercentileInterpolatesBetweenRanks)
{
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(median({7, 1, 5}), 5.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Stats, PercentileNeedsTenSamplesBeyondIt)
{
    EXPECT_TRUE(percentileSupported(1000, 0.99));
    EXPECT_FALSE(percentileSupported(999, 0.99));
    EXPECT_TRUE(percentileSupported(20, 0.5));
    EXPECT_FALSE(percentileSupported(19, 0.5));
}

TEST(Trace, SelfTimeSubtractsChildSpans)
{
    Tracer tracer;
    const Clock::time_point t0 = Clock::now();
    const auto ms = [t0](int v) { return t0 + std::chrono::milliseconds(v); };
    const std::int64_t parent = tracer.add("outer", 1, -1, ms(0), ms(10));
    tracer.add("inner", 1, parent, ms(2), ms(5));
    tracer.add("inner", 1, parent, ms(6), ms(7));
    const auto self = tracer.selfMs();
    EXPECT_NEAR(self.at("outer"), 6.0, 1e-9);
    EXPECT_NEAR(self.at("inner"), 4.0, 1e-9);
}

TEST(Trace, ScopedSpansNestPerThread)
{
    Tracer tracer;
    {
        ScopedSpan outer(&tracer, "outer", 7);
        ScopedSpan inner(&tracer, "inner", 7);
    }
    std::thread([&tracer] { ScopedSpan other(&tracer, "other", 8); }).join();
    const std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, -1);
    EXPECT_NE(spans[2].thread, spans[0].thread);
}

TEST(Workloads, PoissonScheduleIsSeededAndOrdered)
{
    const std::vector<double> a = poissonSchedule(11, 0, 500.0, 4.0);
    EXPECT_EQ(a, poissonSchedule(11, 0, 500.0, 4.0));
    EXPECT_NE(a, poissonSchedule(12, 0, 500.0, 4.0));
    EXPECT_NE(a, poissonSchedule(11, 1, 500.0, 4.0));
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    ASSERT_FALSE(a.empty());
    EXPECT_LT(a.back(), 4.0);
    // 2000 arrivals expected; a Poisson count is within 5 sigma.
    EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 5 * 44.8);
}

TEST(Workloads, GraphDocumentsAreSeededAndLoadStrictly)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < 60; ++i) {
        const std::string doc = userGraphDocument(3, i);
        EXPECT_EQ(doc, userGraphDocument(3, i));
        const hpim::nn::Graph graph = hpim::nn::loadGraph(doc);
        EXPECT_EQ(graph.signature(), userGraph(3, i).signature());
        EXPECT_GE(graph.size(), 30u) << graph.name();
        EXPECT_LE(graph.size(), 700u) << graph.name();
        names.insert(graph.name());
    }
    EXPECT_EQ(names.size(), 60u);
    EXPECT_NE(userGraphDocument(3, 0), userGraphDocument(4, 0));
}

TEST(Workloads, UserGraphStreamIsSeeded)
{
    const UserGraphStream a = userGraphStream(5);
    const UserGraphStream b = userGraphStream(5);
    EXPECT_EQ(a.docs, b.docs);
    EXPECT_EQ(a.stream, b.stream);
    ASSERT_EQ(a.stream.size(), kUserGraphStreamLength);
    ASSERT_EQ(a.distinct.size(), b.distinct.size());
    for (std::size_t i = 0; i < a.distinct.size(); ++i) {
        EXPECT_EQ(a.distinct[i].doc, b.distinct[i].doc);
        EXPECT_EQ(a.distinct[i].freqScale, b.distinct[i].freqScale);
    }
    // Skewed draws: some points repeat, and more documents exist than
    // the stream reaches.
    EXPECT_LT(a.distinct.size(), a.stream.size());
    EXPECT_NE(a.stream, userGraphStream(6).stream);
}

TEST(Workloads, RequestMixIsSeeded)
{
    const RequestPool pool = requestPool(9, 8);
    std::size_t cursor_a = 0, cursor_b = 0;
    const auto a = requestMix(pool, 9, 0, 500, 0.1, cursor_a);
    const auto b = requestMix(pool, 9, 0, 500, 0.1, cursor_b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(cursor_a, cursor_b);
    EXPECT_GT(cursor_a, 0u);
    EXPECT_NE(a, requestMix(pool, 9, 1, 500, 0.1, cursor_b));
    for (std::size_t spec : a)
        ASSERT_LT(spec, pool.specs.size());
    std::size_t cursor_c = 0;
    for (std::size_t spec : requestMix(pool, 9, 2, 500, 0.0, cursor_c))
        EXPECT_NE(pool.classes[spec], RequestClass::UserGraph);
    EXPECT_EQ(cursor_c, 0u);
}

TEST(Workloads, WindowMixHasFixedClassCounts)
{
    const RequestPool pool = requestPool(9, 8);
    const std::vector<std::size_t> a = windowMix(pool, 9, 200, 6);
    EXPECT_EQ(a, windowMix(pool, 9, 200, 6));
    EXPECT_NE(a, windowMix(pool, 10, 200, 6));
    ASSERT_EQ(a.size(), 200u);
    std::map<RequestClass, std::size_t> count;
    std::set<std::size_t> docs;
    for (std::size_t spec : a) {
        ASSERT_LT(spec, pool.specs.size());
        ++count[pool.classes[spec]];
        if (pool.classes[spec] == RequestClass::UserGraph)
            docs.insert(spec);
    }
    EXPECT_EQ(count[RequestClass::UserGraph], 6u);
    EXPECT_EQ(docs.size(), 6u);
    EXPECT_EQ(count[RequestClass::Fault], 10u);
    EXPECT_EQ(count[RequestClass::Builtin], 184u);
}

TEST(Workloads, GridsAreDistinctAndSeeded)
{
    EXPECT_EQ(builtinGrid().size(), 5u * (5 + 8 + 3));
    const std::vector<FaultPoint> a = faultGrid(1);
    const std::vector<FaultPoint> b = faultGrid(1);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].faultSeed, b[i].faultSeed);
    EXPECT_NE(a[0].faultSeed, faultGrid(2)[0].faultSeed);
    const std::vector<std::size_t> order = seededOrder(80, 1, "x", 0);
    EXPECT_EQ(order, seededOrder(80, 1, "x", 0));
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 80u);
}

} // namespace
} // namespace perfbench
