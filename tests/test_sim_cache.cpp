/**
 * @file
 * Tests for the cross-point memo cache (sim/memo_cache.hh): exact
 * keying, the enabled switch, the end-to-end guarantee the bench
 * goldens rely on -- cached, uncached and parallel sweeps produce
 * byte-identical reports -- that an observed run keeps the cache and
 * its bytes, and the exact hit counts a user graph earns across
 * neighboring configs.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/presets.hh"
#include "harness/graph_workloads.hh"
#include "harness/report_io.hh"
#include "harness/sweep.hh"
#include "nn/graph_builder.hh"
#include "nn/graph_io.hh"
#include "nn/models.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "rt/hetero_runtime.hh"
#include "serve/simulate.hh"
#include "sim/memo_cache.hh"

using hpim::sim::MemoCache;

namespace {

/** Reset the process-wide cache around each test. */
class SimCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        MemoCache::setEnabled(true);
        MemoCache::instance().setMaxEntries(0);
        MemoCache::instance().clear();
    }

    void
    TearDown() override
    {
        MemoCache::setEnabled(true);
        MemoCache::instance().setMaxEntries(0);
        MemoCache::instance().clear();
    }
};

std::vector<std::string>
serialize(const std::vector<hpim::rt::ExecutionReport> &reports)
{
    std::vector<std::string> out;
    out.reserve(reports.size());
    for (const auto &report : reports)
        out.push_back(hpim::harness::jsonString(report));
    return out;
}

/** A small fig8-style grid: every CNN on two systems. */
std::vector<hpim::harness::ExperimentPoint>
smallGrid()
{
    std::vector<hpim::harness::ExperimentPoint> points;
    for (hpim::nn::ModelId model : hpim::nn::cnnModels()) {
        for (auto kind : {hpim::baseline::SystemKind::CpuOnly,
                          hpim::baseline::SystemKind::HeteroPim}) {
            hpim::harness::ExperimentPoint p;
            p.kind = kind;
            p.model = model;
            p.steps = 2;
            points.push_back(p);
        }
    }
    return points;
}

/** Text of a graph document committed under examples/graphs/. */
std::string
committedGraph(const std::string &name)
{
    const std::string path =
        std::string(HPIM_SOURCE_DIR) + "/examples/graphs/" + name;
    std::ifstream file(path);
    EXPECT_TRUE(file) << "cannot read " << path;
    std::stringstream text;
    text << file.rdbuf();
    return text.str();
}

/**
 * A wide synthetic training graph: 32 independent dense towers merged
 * pairwise, closed with trainingStep (backward pass + Adam), ~500
 * lowered ops, most of them repeats of one tower's shapes.
 */
hpim::nn::Graph
buildWideGraph()
{
    hpim::nn::Builder b("bench-wide");
    std::vector<hpim::nn::TensorRef> towers;
    for (int tower = 0; tower < 32; ++tower) {
        hpim::nn::TensorRef x =
            b.input(hpim::nn::TensorShape({64, 256}));
        x = b.dense(x, 256);
        x = b.layerNorm(x);
        x = b.dense(x, 128);
        towers.push_back(x);
    }
    while (towers.size() > 1) {
        std::vector<hpim::nn::TensorRef> merged;
        for (std::size_t i = 0; i + 1 < towers.size(); i += 2)
            merged.push_back(b.add(towers[i], towers[i + 1]));
        if (towers.size() % 2 != 0)
            merged.push_back(towers.back());
        towers = std::move(merged);
    }
    hpim::nn::TensorRef logits = b.dense(towers.front(), 16, false);
    return b.trainingStep(logits);
}

} // namespace

TEST_F(SimCacheTest, FindReturnsExactlyWhatPutStored)
{
    auto &cache = MemoCache::instance();
    auto value = std::make_shared<const int>(42);
    cache.put<int>(7, "test.int", value);
    auto hit = cache.find<int>(7, "test.int");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit.get(), value.get()); // the very object, not a copy
    EXPECT_EQ(*hit, 42);
}

TEST_F(SimCacheTest, DifferentKeyOrTagMisses)
{
    auto &cache = MemoCache::instance();
    cache.put<int>(7, "test.int", std::make_shared<const int>(1));
    EXPECT_EQ(cache.find<int>(8, "test.int"), nullptr);
    EXPECT_EQ(cache.find<int>(7, "test.other"), nullptr);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.insertions, 1u);
}

TEST_F(SimCacheTest, FirstWriterWins)
{
    // Racing sweep workers compute identical values for one key; the
    // first insert sticks so every later find returns one object.
    auto &cache = MemoCache::instance();
    auto first = std::make_shared<const int>(1);
    cache.put<int>(3, "test.int", first);
    cache.put<int>(3, "test.int", std::make_shared<const int>(1));
    auto hit = cache.find<int>(3, "test.int");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit.get(), first.get());
    EXPECT_EQ(cache.stats().insertions, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST_F(SimCacheTest, DisabledCacheNeverStoresOrHits)
{
    MemoCache::setEnabled(false);
    EXPECT_FALSE(MemoCache::enabled());
    auto &cache = MemoCache::instance();
    cache.put<int>(5, "test.int", std::make_shared<const int>(9));
    EXPECT_EQ(cache.find<int>(5, "test.int"), nullptr);
    MemoCache::setEnabled(true);
    EXPECT_EQ(cache.find<int>(5, "test.int"), nullptr); // never stored
}

TEST_F(SimCacheTest, ObservedRunsKeepTheCacheAndTheirBytes)
{
    // hpim_cli's observed run: a registry and a trace session around
    // runSimulate. A hit skips only graph building and profiling,
    // which record no event or metric, so the cached runs (cold, then
    // warm) give the uncached run's report, metrics and trace bytes.
    auto observed = [] {
        hpim::obs::MetricsRegistry registry;
        registry.attach();
        hpim::obs::TraceSession trace;
        trace.attach();
        hpim::rt::ExecutionReport report =
            hpim::serve::runSimulate(hpim::serve::SimulateSpec{});
        report.metrics = registry.snapshot();
        trace.detach();
        registry.detach();
        EXPECT_FALSE(report.metrics.empty());
        EXPECT_GT(trace.eventCount(), 0u);
        std::ostringstream chrome;
        trace.exportChromeTrace(chrome);
        return hpim::harness::jsonString(report) + chrome.str();
    };

    MemoCache::setEnabled(false);
    const std::string reference = observed();
    MemoCache::setEnabled(true);
    const std::string cold = observed();
    const auto hit_stats_before = MemoCache::instance().stats();
    const std::string warm = observed();
    const auto hit_stats_after = MemoCache::instance().stats();

    EXPECT_EQ(reference, cold);
    EXPECT_EQ(reference, warm);
    EXPECT_GT(hit_stats_after.hits, hit_stats_before.hits);
}

TEST_F(SimCacheTest, CachedAndUncachedSweepsAreByteIdentical)
{
    const auto points = smallGrid();

    // Reference: cache disabled end to end (the --no-sim-cache path).
    hpim::harness::SweepOptions off;
    off.jobs = 1;
    off.simCache = false;
    const auto reference =
        serialize(hpim::harness::SweepRunner(off).run(points));

    // Cold cache, then warm cache: the second run hits on every
    // memoized sub-result and must not change a byte.
    hpim::harness::SweepOptions on;
    on.jobs = 1;
    on.simCache = true;
    MemoCache::instance().clear();
    const auto cold =
        serialize(hpim::harness::SweepRunner(on).run(points));
    const auto hit_stats_before = MemoCache::instance().stats();
    const auto warm =
        serialize(hpim::harness::SweepRunner(on).run(points));
    const auto hit_stats_after = MemoCache::instance().stats();

    EXPECT_EQ(reference, cold);
    EXPECT_EQ(reference, warm);
    // The warm run actually exercised the hit path.
    EXPECT_GT(hit_stats_after.hits, hit_stats_before.hits);
}

TEST_F(SimCacheTest, CachedSweepIsByteIdenticalAcrossJobCounts)
{
    const auto points = smallGrid();

    hpim::harness::SweepOptions serial;
    serial.jobs = 1;
    MemoCache::instance().clear();
    const auto j1 =
        serialize(hpim::harness::SweepRunner(serial).run(points));

    for (std::uint32_t jobs : {2u, 4u}) {
        hpim::harness::SweepOptions parallel;
        parallel.jobs = jobs;
        MemoCache::instance().clear();
        const auto jn = serialize(
            hpim::harness::SweepRunner(parallel).run(points));
        EXPECT_EQ(j1, jn) << "sweep diverged at --jobs " << jobs;
        // And with workers racing on a shared warm cache:
        const auto jn_warm = serialize(
            hpim::harness::SweepRunner(parallel).run(points));
        EXPECT_EQ(j1, jn_warm)
            << "warm-cache sweep diverged at --jobs " << jobs;
    }
}

TEST_F(SimCacheTest, GraphSignatureDistinguishesStructure)
{
    using hpim::nn::ModelId;
    hpim::nn::Graph a = hpim::nn::buildModel(ModelId::AlexNet);
    hpim::nn::Graph b = hpim::nn::buildModel(ModelId::AlexNet);
    hpim::nn::Graph c = hpim::nn::buildModel(ModelId::Vgg19);
    EXPECT_EQ(a.signature(), b.signature());
    EXPECT_NE(a.signature(), c.signature());
}

TEST_F(SimCacheTest, MaxEntriesEvictsOldestInsertionFirst)
{
    auto &cache = MemoCache::instance();
    cache.setMaxEntries(2);
    cache.put<int>(1, "test.int", std::make_shared<const int>(1));
    cache.put<int>(2, "test.int", std::make_shared<const int>(2));
    cache.put<int>(3, "test.int", std::make_shared<const int>(3));
    // Key 1 was inserted first, so it is the one evicted.
    EXPECT_EQ(cache.find<int>(1, "test.int"), nullptr);
    EXPECT_NE(cache.find<int>(2, "test.int"), nullptr);
    EXPECT_NE(cache.find<int>(3, "test.int"), nullptr);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.insertions, 3u);
}

TEST_F(SimCacheTest, CappingAWarmCacheTrimsOldestFirst)
{
    // Entries inserted while unbounded are ordered too: a cap set on
    // a warm cache trims it oldest-first at once, and the next
    // insertion evicts the oldest survivor, not itself.
    auto &cache = MemoCache::instance();
    for (std::uint64_t key = 1; key <= 10; ++key)
        cache.put<int>(key, "test.int", std::make_shared<const int>(1));
    cache.setMaxEntries(4);
    EXPECT_EQ(cache.stats().entries, 4u);
    EXPECT_EQ(cache.stats().evictions, 6u);
    cache.put<int>(11, "test.int", std::make_shared<const int>(1));
    EXPECT_EQ(cache.stats().entries, 4u);
    EXPECT_EQ(cache.stats().evictions, 7u);
    for (std::uint64_t key = 1; key <= 11; ++key) {
        EXPECT_EQ(cache.find<int>(key, "test.int") != nullptr, key >= 8)
            << "key " << key;
    }

    // Lifting the cap keeps the order: a later cap trims the same way.
    cache.setMaxEntries(0);
    cache.put<int>(12, "test.int", std::make_shared<const int>(1));
    cache.put<int>(13, "test.int", std::make_shared<const int>(1));
    EXPECT_EQ(cache.stats().entries, 6u);
    cache.setMaxEntries(2);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 11u);
    EXPECT_EQ(cache.find<int>(11, "test.int"), nullptr);
    EXPECT_NE(cache.find<int>(12, "test.int"), nullptr);
    EXPECT_NE(cache.find<int>(13, "test.int"), nullptr);
}

TEST_F(SimCacheTest, ZeroMaxEntriesMeansUnbounded)
{
    auto &cache = MemoCache::instance();
    cache.setMaxEntries(1);
    cache.setMaxEntries(0);
    for (std::uint64_t key = 0; key < 16; ++key)
        cache.put<int>(key, "test.int",
                       std::make_shared<const int>(1));
    EXPECT_EQ(cache.stats().entries, 16u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST_F(SimCacheTest, CappedCacheSweepIsByteIdentical)
{
    // A tiny cap forces constant eviction (the "partial cache" mode):
    // some points hit, most miss, and nothing may change a byte.
    const auto points = smallGrid();

    hpim::harness::SweepOptions off;
    off.jobs = 1;
    off.simCache = false;
    const auto reference =
        serialize(hpim::harness::SweepRunner(off).run(points));

    for (std::uint32_t jobs : {1u, 2u, 4u}) {
        hpim::harness::SweepOptions capped;
        capped.jobs = jobs;
        capped.simCacheMaxEntries = 4;
        MemoCache::instance().clear();
        const auto got = serialize(
            hpim::harness::SweepRunner(capped).run(points));
        EXPECT_EQ(reference, got)
            << "capped-cache sweep diverged at --jobs " << jobs;
    }
    EXPECT_GT(MemoCache::instance().stats().evictions, 0u);
}

TEST_F(SimCacheTest, UserGraphAppendixIdenticalAcrossCacheModes)
{
    using hpim::baseline::SystemKind;

    // An in-memory user graph (the graph_sweep path without file IO).
    hpim::nn::Builder builder("cache-test");
    hpim::nn::TensorRef x =
        builder.input(hpim::nn::TensorShape({8, 32}));
    x = builder.dense(x, 32);
    x = builder.layerNorm(x);
    hpim::nn::TensorRef logits = builder.dense(x, 8, false);
    auto graph = std::make_shared<const hpim::nn::Graph>(
        builder.trainingStep(logits));
    const std::vector<hpim::harness::GraphWorkload> workloads = {
        {"inline:cache-test", graph}};
    const std::vector<SystemKind> systems = {SystemKind::CpuOnly,
                                             SystemKind::HeteroPim};

    auto appendix = [&](hpim::harness::SweepOptions options) {
        MemoCache::instance().clear();
        hpim::harness::SweepRunner runner(std::move(options));
        std::ostringstream os;
        hpim::harness::runGraphAppendix(os, runner, workloads, systems,
                                        /*steps=*/2);
        return os.str();
    };

    hpim::harness::SweepOptions off;
    off.jobs = 1;
    off.simCache = false;
    const std::string reference = appendix(off);
    ASSERT_FALSE(reference.empty());

    for (std::uint32_t jobs : {1u, 2u, 4u}) {
        hpim::harness::SweepOptions full;
        full.jobs = jobs;
        EXPECT_EQ(reference, appendix(full))
            << "full-cache appendix diverged at --jobs " << jobs;

        hpim::harness::SweepOptions capped;
        capped.jobs = jobs;
        capped.simCacheMaxEntries = 4;
        EXPECT_EQ(reference, appendix(capped))
            << "capped-cache appendix diverged at --jobs " << jobs;

        hpim::harness::SweepOptions none;
        none.jobs = jobs;
        none.simCache = false;
        EXPECT_EQ(reference, appendix(none))
            << "uncached appendix diverged at --jobs " << jobs;
    }
}

TEST_F(SimCacheTest, NeighboringConfigMemoCountsArePinned)
{
    // One graph document sent through runSimulate, the daemon's path,
    // at four neighboring configs (frequency 1.0/0.95 x programmable
    // PIMs 1/2), twice. Each point looks up the parsed document
    // (nn.graph.user) and its prepare (rt.prepared). Neither axis
    // changes the CPU, so only the first point misses both: 2 misses
    // and 6 hits in pass 1, and 8 more hits in pass 2. Nothing hits
    // partially. A change that recomputes what these tiers keep, or
    // that memoizes something more, shows as other counts.
    struct Counts
    {
        std::uint64_t hits, partialHits, misses, insertions;
    };
    struct Input
    {
        const char *name;
        std::string document;
        std::uint32_t steps;
        Counts afterPass[2];
    };
    const Input inputs[] = {
        {"transformer_train.json",
         committedGraph("transformer_train.json"), 2,
         {{6, 0, 2, 2}, {14, 0, 2, 2}}},
        {"32-tower wide graph",
         hpim::nn::graphToJson(buildWideGraph()), 1,
         {{6, 0, 2, 2}, {14, 0, 2, 2}}},
    };
    for (const Input &input : inputs) {
        MemoCache::instance().clear();
        for (int pass = 0; pass < 2; ++pass) {
            for (double freq_scale : {1.0, 0.95}) {
                for (std::uint32_t pims : {1u, 2u}) {
                    hpim::serve::SimulateSpec spec;
                    spec.graph = input.document;
                    spec.system = "hetero";
                    spec.steps = input.steps;
                    spec.freqScale = freq_scale;
                    spec.progrPims = pims;
                    hpim::serve::runSimulate(spec);
                }
            }
            const MemoCache::Stats got = MemoCache::instance().stats();
            const Counts &want = input.afterPass[pass];
            EXPECT_EQ(got.hits, want.hits)
                << input.name << ", pass " << pass + 1;
            EXPECT_EQ(got.partialHits, want.partialHits)
                << input.name << ", pass " << pass + 1;
            EXPECT_EQ(got.misses, want.misses)
                << input.name << ", pass " << pass + 1;
            EXPECT_EQ(got.insertions, want.insertions)
                << input.name << ", pass " << pass + 1;
        }
    }
}

TEST_F(SimCacheTest, RepeatedGraphsHitPrepareUnderACap)
{
    // Three graphs (both committed documents and a built-in model), each
    // run at four neighboring configs (frequency 1.0/0.95 x
    // programmable PIMs 1/2), twice over, in a cache capped at eight
    // entries. Neither axis changes the CPU or the coverage, so each
    // graph's first run misses rt.prepared and the other seven hit
    // it. Prepare stores one entry per graph, so all three fit under
    // the cap and none is evicted.
    using hpim::baseline::SystemKind;
    const hpim::nn::Graph graphs[] = {
        hpim::nn::loadGraph(committedGraph("edge_cnn_infer.json")),
        hpim::nn::loadGraph(committedGraph("transformer_train.json")),
        hpim::nn::buildModel(hpim::nn::ModelId::AlexNet),
    };
    auto &cache = MemoCache::instance();
    cache.clear();
    cache.setMaxEntries(8);
    for (int pass = 0; pass < 2; ++pass) {
        for (double freq_scale : {1.0, 0.95}) {
            for (std::uint32_t pims : {1u, 2u}) {
                for (const hpim::nn::Graph &graph : graphs) {
                    hpim::baseline::runSystemGraph(
                        SystemKind::HeteroPim, graph, 1, freq_scale,
                        pims);
                }
            }
        }
    }
    const MemoCache::Stats got = cache.stats();
    EXPECT_EQ(got.hits, 21u);
    EXPECT_EQ(got.misses, 3u);
    EXPECT_EQ(got.evictions, 0u);
    EXPECT_EQ(got.entries, 3u);
}

TEST_F(SimCacheTest, ModelBuildsAreMemoizedPerModelAndBatch)
{
    using hpim::nn::ModelId;
    // Five CNNs x three fault seeds through HeteroRuntime::train, the
    // fault sweep's point. Per model, the first seed misses and fills
    // nn.graph and rt.prepared; its profile walks the graph without a
    // lookup. The other two seeds hit both: a fault seed shapes
    // neither.
    //   hits:         10 nn.graph + 10 rt.prepared
    //   partial hits: none
    //   misses:       5 nn.graph + 5 rt.prepared
    //   insertions:   one per miss
    for (ModelId model : hpim::nn::cnnModels()) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            hpim::rt::SystemConfig config =
                hpim::baseline::makeConfig(
                    hpim::baseline::SystemKind::HeteroPim);
            config.steps = 1;
            config.faults.enabled = true;
            config.faults.transientRatePerOp = 1e-3;
            config.faults.killBanks = 4;
            config.faults.seed = seed;
            hpim::rt::HeteroRuntime(config).train(
                hpim::nn::buildModel(model));
        }
    }
    MemoCache::Stats got = MemoCache::instance().stats();
    EXPECT_EQ(got.hits, 20u);
    EXPECT_EQ(got.partialHits, 0u);
    EXPECT_EQ(got.misses, 10u);
    EXPECT_EQ(got.insertions, 10u);

    // The default batch resolves before keying: one entry.
    MemoCache::instance().clear();
    const hpim::nn::Graph by_default =
        hpim::nn::buildModel(ModelId::AlexNet, 0);
    const hpim::nn::Graph explicit_batch = hpim::nn::buildModel(
        ModelId::AlexNet, hpim::nn::defaultBatchSize(ModelId::AlexNet));
    EXPECT_EQ(&by_default.ops(), &explicit_batch.ops());
    got = MemoCache::instance().stats();
    EXPECT_EQ(got.misses, 1u);
    EXPECT_EQ(got.hits, 1u);
    EXPECT_EQ(got.insertions, 1u);
    EXPECT_EQ(got.entries, 1u);

    // A disabled cache is neither asked nor filled.
    MemoCache::setEnabled(false);
    const hpim::nn::Graph uncached =
        hpim::nn::buildModel(ModelId::Vgg19);
    MemoCache::setEnabled(true);
    EXPECT_NE(&uncached.ops(), &by_default.ops());
    const MemoCache::Stats after = MemoCache::instance().stats();
    EXPECT_EQ(after.hits + after.misses + after.partialHits,
              got.hits + got.misses + got.partialHits);
    EXPECT_EQ(after.insertions, got.insertions);
}

TEST_F(SimCacheTest, ThreadsAddToCopiesOfAMemoizedModel)
{
    using namespace hpim::nn;
    // Sweep workers share graph bodies across threads. Four threads
    // each copy one memoized model and add() to their copy while this
    // thread reads the memoized graph; run under ThreadSanitizer in CI.
    const Graph memoized = buildModel(ModelId::AlexNet);
    const std::uint64_t signature = memoized.signature();
    const std::size_t size = memoized.size();
    CostStructure cost;
    cost.specials = 64;

    std::vector<std::pair<std::size_t, std::uint64_t>> grown(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < grown.size(); ++t) {
        threads.emplace_back([&grown, &cost, t] {
            Graph copy = buildModel(ModelId::AlexNet);
            for (int i = 0; i < 8; ++i) {
                const OpId last = static_cast<OpId>(copy.size() - 1);
                copy.add(OpType::Relu, "extra/Relu", cost, {}, {last});
            }
            grown[t] = {copy.size(), copy.signature()};
        });
    }
    double flops = 0.0;
    for (int round = 0; round < 20; ++round) {
        const ConsumerLists consumers = consumerLists(memoized);
        for (const Operation &op : memoized.ops())
            flops += op.cost.flops() + consumers.of(op.id).size() % 2;
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_GT(flops, 0.0);
    EXPECT_EQ(memoized.size(), size);
    EXPECT_EQ(memoized.signature(), signature);
    EXPECT_EQ(buildModel(ModelId::AlexNet).size(), size);
    for (const auto &[grown_size, grown_signature] : grown) {
        EXPECT_EQ(grown_size, size + 8);
        EXPECT_EQ(grown_signature, grown.front().second);
        EXPECT_NE(grown_signature, signature);
    }
}
