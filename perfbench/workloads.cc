#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "nn/graph_builder.hh"
#include "nn/graph_io.hh"
#include "sim/hash.hh"
#include "sim/rng.hh"

namespace perfbench {

using hpim::baseline::SystemKind;
using hpim::nn::Builder;
using hpim::nn::TensorRef;
using hpim::nn::TensorShape;
using hpim::sim::Rng;

namespace {

/** Independent stream per purpose, so adding a draw to one input
 *  never shifts another. */
std::uint64_t
seedFor(std::uint64_t seed, const char *purpose)
{
    return hpim::sim::hashString(purpose, hpim::sim::hashU64(seed));
}

template <typename T, std::size_t N>
T
pick(Rng &rng, const T (&choices)[N])
{
    return choices[rng.below(N)];
}

/** The integer at fraction @p depth (in [0, 1)) of [lo, hi]. */
std::int64_t
stratified(double depth, std::int64_t lo, std::int64_t hi)
{
    return std::min(hi, lo + static_cast<std::int64_t>(
                                 depth * static_cast<double>(hi - lo + 1)));
}

// ------------------------------------------------------- graph families

/** Stems shared across documents: the same input shape and the same
 *  first layers, hence the same op signatures. */
TensorRef
sharedStem(Builder &b, std::uint64_t stem)
{
    switch (stem) {
      case 0: {
        auto x = b.input(TensorShape{16, 32, 32, 3});
        x = b.conv2d(x, 3, 32, 1);
        x = b.conv2d(x, 3, 32, 1);
        return b.maxPool(x, 2, 2);
      }
      case 1: {
        auto x = b.input(TensorShape{32, 64, 64, 3});
        x = b.conv2d(x, 5, 48, 2);
        return b.batchNorm(x);
      }
      case 2: {
        auto x = b.input(TensorShape{8, 64, 64, 3});
        x = b.conv2d(x, 3, 64, 1);
        x = b.conv2d(x, 1, 64, 1);
        return b.maxPool(x, 2, 2);
      }
      default: {
        auto x = b.input(TensorShape{16, 64, 64, 3});
        x = b.conv2d(x, 7, 32, 2);
        return b.maxPool(x, 3, 2);
      }
    }
}

TensorRef
cnn(Builder &b, Rng &rng, bool training, double depth)
{
    TensorRef x;
    if (rng.chance(0.5)) {
        x = sharedStem(b, rng.below(4));
    } else {
        const std::int64_t batches[] = {8, 16, 32};
        const std::int64_t sides[] = {32, 64};
        const std::int64_t side = pick(rng, sides);
        x = b.input(TensorShape{pick(rng, batches), side, side, 3});
    }
    const std::int64_t kernels[] = {1, 3, 3, 5};
    const std::int64_t widths[] = {32, 64, 128};
    const std::int64_t blocks =
        stratified(depth, training ? 4 : 10, training ? 20 : 40);
    for (std::int64_t i = 0; i < blocks; ++i) {
        const std::int64_t side = b.shape(x).dim(1);
        const std::int64_t k = pick(rng, kernels);
        const std::int64_t c = rng.chance(0.5) ? pick(rng, widths)
                                               : rng.inRange(12, 160);
        const std::int64_t stride = side > 8 && rng.chance(0.3) ? 2 : 1;
        x = b.conv2d(x, k, c, stride);
        if (rng.chance(0.3))
            x = b.batchNorm(x);
        if (b.shape(x).dim(1) > 8 && rng.chance(0.25))
            x = b.maxPool(x, 2, 2);
    }
    x = b.flatten(x);
    if (rng.chance(0.6))
        x = b.dense(x, rng.chance(0.5) ? 256 : rng.inRange(64, 512));
    const std::int64_t classes[] = {10, 100};
    return b.dense(x, pick(rng, classes), /*relu=*/false);
}

TensorRef
mlp(Builder &b, Rng &rng, bool training, double depth)
{
    const std::int64_t batches[] = {32, 64, 128};
    const std::int64_t features[] = {256, 784, 1024};
    const std::int64_t widths[] = {256, 512, 1024};
    auto x = b.input(TensorShape{pick(rng, batches), pick(rng, features)});
    const std::int64_t layers =
        stratified(depth, training ? 6 : 16, training ? 30 : 60);
    for (std::int64_t i = 0; i < layers; ++i) {
        x = b.dense(x, rng.chance(0.5) ? pick(rng, widths)
                                       : rng.inRange(64, 1200));
        if (rng.chance(0.3))
            x = b.dropout(x);
        if (rng.chance(0.2))
            x = b.layerNorm(x);
    }
    const std::int64_t classes[] = {10, 100, 1000};
    return b.dense(x, pick(rng, classes), /*relu=*/false);
}

/** Encoder blocks as in examples/export_graphs.cpp. */
TensorRef
transformer(Builder &b, Rng &rng, bool training, double depth)
{
    const std::int64_t token_counts[] = {128, 256, 512};
    const std::int64_t model_widths[] = {64, 128, 256};
    const std::int64_t width = pick(rng, model_widths);
    auto x = b.input(TensorShape{pick(rng, token_counts), width});
    const std::int64_t blocks =
        stratified(depth, training ? 2 : 3, training ? 8 : 16);
    for (std::int64_t i = 0; i < blocks; ++i) {
        auto q = b.dense(x, width, false);
        auto k = b.dense(x, width, false);
        auto v = b.dense(x, width, false);
        auto weights = b.softmax(b.matmul(q, b.transpose(k)));
        auto proj = b.dense(b.matmul(weights, v), width, false);
        auto attn = b.layerNorm(b.add(proj, x));
        auto ffn = b.dense(b.dense(attn, 4 * width), width, false);
        x = b.layerNorm(b.add(ffn, attn));
    }
    const std::int64_t classes[] = {10, 1000};
    return b.dense(x, pick(rng, classes), /*relu=*/false);
}

} // namespace

// --------------------------------------------------------- sweep_builtin

std::vector<BuiltinPoint>
builtinGrid()
{
    const SystemKind fig8[] = {SystemKind::CpuOnly, SystemKind::Gpu,
                               SystemKind::ProgrPimOnly,
                               SystemKind::FixedPimOnly,
                               SystemKind::HeteroPim};
    std::vector<BuiltinPoint> grid;
    for (hpim::nn::ModelId model : hpim::nn::cnnModels()) {
        for (SystemKind kind : fig8)
            grid.push_back({kind, model});
        for (double freq : {1.0, 2.0, 4.0}) {
            for (std::uint32_t progr : {1u, 4u, 16u}) {
                if (freq == 1.0 && progr == 1)
                    continue; // the Fig. 8 Hetero point
                grid.push_back(
                    {SystemKind::HeteroPim, model, freq, progr});
            }
        }
        for (auto [rc, op] : {std::pair{false, false},
                              std::pair{true, false},
                              std::pair{false, true}}) {
            BuiltinPoint point{SystemKind::HeteroPim, model};
            point.rc = rc;
            point.op = op;
            grid.push_back(point);
        }
    }
    return grid;
}

hpim::rt::SystemConfig
builtinVariantConfig(const BuiltinPoint &point)
{
    hpim::rt::SystemConfig config = hpim::baseline::makeHetero(
        true, point.rc, point.op, point.freqScale, point.progrPims);
    config.steps = kBuiltinSteps;
    return config;
}

// ---------------------------------------------------------- sweep_faults

std::vector<FaultPoint>
faultGrid(std::uint64_t seed)
{
    struct Rates
    {
        double transient;
        double stall;
    };
    const Rates rates[] = {
        {1e-4, 0.0}, {1e-3, 1e-4}, {1e-2, 1e-3}, {0.05, 1e-2}};
    Rng rng(seedFor(seed, "fault-seeds"));
    std::vector<FaultPoint> grid;
    for (hpim::nn::ModelId model : hpim::nn::cnnModels()) {
        for (std::uint32_t kills : {0u, 4u, 16u, 32u}) {
            for (const Rates &rate : rates) {
                for (std::size_t k = 0; k < kFaultSeedsPerConfig; ++k) {
                    grid.push_back({model, kills, rate.transient,
                                    rate.stall, rng.next()});
                }
            }
        }
    }
    return grid;
}

hpim::rt::SystemConfig
faultConfig(const FaultPoint &point)
{
    hpim::rt::SystemConfig config =
        hpim::baseline::makeConfig(SystemKind::HeteroPim);
    config.steps = kFaultSteps;
    config.faults.enabled = true;
    config.faults.seed = point.faultSeed;
    config.faults.killBanks = point.killBanks;
    config.faults.transientRatePerOp = point.transientRate;
    config.faults.stallRatePerOp = point.stallRate;
    return config;
}

// ----------------------------------------------------- sweep_user_graphs

hpim::nn::Graph
userGraph(std::uint64_t seed, std::size_t index)
{
    // Family, training vs inference and depth follow the index (depth
    // as a golden-ratio sequence), so every seed's population has the
    // same size profile and seeds differ in layer details only: the
    // host cost of a pass then barely depends on the seed.
    Rng rng(Rng::streamSeed(seedFor(seed, "user-graphs"), index));
    const std::size_t family = index % 3;
    const bool training = (index / 3) % 10 < 7;
    const double golden = 0.6180339887498949;
    const double depth = static_cast<double>(index) * golden
                         - std::floor(static_cast<double>(index) * golden);
    Builder b("user-graph-" + std::to_string(index));
    TensorRef logits = family == 0   ? cnn(b, rng, training, depth)
                       : family == 1 ? mlp(b, rng, training, depth)
                                     : transformer(b, rng, training, depth);
    if (training) {
        return b.trainingStep(logits, rng.chance(0.8)
                                          ? hpim::nn::Optimizer::Adam
                                          : hpim::nn::Optimizer::Sgd);
    }
    b.softmax(logits);
    return b.finishForward();
}

std::string
userGraphDocument(std::uint64_t seed, std::size_t index)
{
    return hpim::nn::graphToJson(userGraph(seed, index));
}

UserGraphStream
userGraphStream(std::uint64_t seed)
{
    UserGraphStream out;
    out.docs.reserve(kUserGraphPopulation);
    for (std::size_t i = 0; i < kUserGraphPopulation; ++i)
        out.docs.push_back(userGraphDocument(seed, i));

    // Zipf(0.9) over the population, document i at rank i: a few
    // documents recur often, most appear once or never.
    std::vector<double> cdf(kUserGraphPopulation);
    double total = 0.0;
    for (std::size_t r = 0; r < kUserGraphPopulation; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), 0.9);
        cdf[r] = total;
    }
    struct Config
    {
        double freq;
        std::uint32_t progr;
    };
    const Config configs[] = {{1.0, 1}, {1.0, 4}, {2.0, 1}, {2.0, 4}};
    // Stratified draws: the n-th point takes the Zipf quantile
    // (k + 0.5) / length for a seeded permutation k of 0..length-1, so
    // every seed draws the same multiset of ranks, in its own order.
    const std::vector<std::size_t> quantile =
        seededOrder(kUserGraphStreamLength, seed, "zipf-quantiles", 0);
    Rng rng(seedFor(seed, "user-graph-stream"));
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> seen;
    for (std::size_t n = 0; n < kUserGraphStreamLength; ++n) {
        const double u = (static_cast<double>(quantile[n]) + 0.5)
                         / static_cast<double>(kUserGraphStreamLength)
                         * total;
        const auto rank = static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const std::size_t doc = std::min(rank, kUserGraphPopulation - 1);
        const std::size_t config = rng.below(std::size(configs));
        auto [it, fresh] =
            seen.try_emplace({doc, config}, out.distinct.size());
        if (fresh) {
            out.distinct.push_back(
                {doc, configs[config].freq, configs[config].progr});
        }
        out.stream.push_back(it->second);
    }
    return out;
}

// ----------------------------------------------------------------- serve

std::vector<double>
poissonSchedule(std::uint64_t seed, std::uint64_t stream, double rate,
                double seconds)
{
    Rng rng(Rng::streamSeed(seedFor(seed, "poisson"), stream));
    std::vector<double> offsets;
    double t = 0.0;
    while (true) {
        t += -std::log1p(-rng.uniform()) / rate;
        if (t >= seconds)
            return offsets;
        offsets.push_back(t);
    }
}

RequestPool
requestPool(std::uint64_t seed, std::size_t user_docs)
{
    using hpim::serve::SimulateSpec;
    RequestPool pool;
    auto add = [&pool](SimulateSpec spec, RequestClass cls,
                       std::vector<std::size_t> &index) {
        index.push_back(pool.specs.size());
        pool.specs.push_back(std::move(spec));
        pool.classes.push_back(cls);
    };
    for (hpim::nn::ModelId model : hpim::nn::cnnModels()) {
        for (const char *system : {"hetero", "fixed"}) {
            for (std::uint32_t steps : {1u, 4u}) {
                for (double freq : {1.0, 2.0}) {
                    SimulateSpec spec;
                    spec.model = hpim::serve::modelToken(model);
                    spec.system = system;
                    spec.steps = steps;
                    spec.freqScale = freq;
                    add(spec, RequestClass::Builtin, pool.builtin);
                }
            }
        }
    }
    const std::uint64_t doc_seed = seedFor(seed, "serve-documents");
    for (std::size_t i = 0; i < user_docs; ++i) {
        SimulateSpec spec;
        spec.graph = userGraphDocument(doc_seed, i);
        spec.steps = 1;
        add(spec, RequestClass::UserGraph, pool.userGraph);
    }
    Rng rng(seedFor(seed, "serve-fault-seeds"));
    for (hpim::nn::ModelId model : hpim::nn::cnnModels()) {
        for (double rate : {1e-3, 1e-2}) {
            SimulateSpec spec;
            spec.model = hpim::serve::modelToken(model);
            spec.steps = 1;
            spec.faultRate = rate;
            spec.faultSeed = rng.next();
            add(spec, RequestClass::Fault, pool.fault);
        }
    }
    return pool;
}

std::vector<std::size_t>
requestMix(const RequestPool &pool, std::uint64_t seed,
           std::uint64_t stream, std::size_t count, double doc_share,
           std::size_t &doc_cursor)
{
    const std::vector<std::size_t> rotation =
        seededOrder(pool.userGraph.size(), seed, "doc-rotation", 0);
    Rng rng(Rng::streamSeed(seedFor(seed, "request-mix"), stream));
    std::vector<std::size_t> mix;
    mix.reserve(count);
    for (std::size_t n = 0; n < count; ++n) {
        const double u = rng.uniform();
        if (u < kFaultShare) {
            mix.push_back(pool.fault[rng.below(pool.fault.size())]);
        } else if (u < kFaultShare + doc_share) {
            mix.push_back(
                pool.userGraph[rotation[doc_cursor++ % rotation.size()]]);
        } else {
            mix.push_back(pool.builtin[rng.below(pool.builtin.size())]);
        }
    }
    return mix;
}

std::vector<std::size_t>
windowMix(const RequestPool &pool, std::uint64_t seed, std::size_t count,
          std::size_t docs)
{
    const auto faults = static_cast<std::size_t>(
        std::lround(kFaultShare * static_cast<double>(count)));
    if (docs > pool.userGraph.size() || faults + docs > count)
        throw std::invalid_argument("window too short for its documents");
    std::vector<std::size_t> mix(pool.userGraph.begin(),
                                 pool.userGraph.begin()
                                     + static_cast<std::ptrdiff_t>(docs));
    for (std::size_t n = 0; n < faults; ++n)
        mix.push_back(pool.fault[n % pool.fault.size()]);
    for (std::size_t n = 0; mix.size() < count; ++n)
        mix.push_back(pool.builtin[n % pool.builtin.size()]);
    const std::vector<std::size_t> order =
        seededOrder(count, seed, "window-mix", 0);
    std::vector<std::size_t> shuffled;
    shuffled.reserve(count);
    for (std::size_t i : order)
        shuffled.push_back(mix[i]);
    return shuffled;
}

std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed, const char *purpose,
            std::uint64_t stream)
{
    Rng rng(Rng::streamSeed(seedFor(seed, purpose), stream));
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

} // namespace perfbench
