/**
 * @file
 * Seeded input generation for the four benchmark workloads.
 *
 * Everything here is a pure function of the benchmark's --seed: the
 * simulator only ever receives the generated inputs (grid points,
 * graph documents, request frames), never the seed. perfbench/README.md
 * records why each workload exists and what it is predicted to move.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "baseline/presets.hh"
#include "nn/graph.hh"
#include "nn/models.hh"
#include "rt/system_config.hh"
#include "serve/protocol.hh"

namespace perfbench {

// --------------------------------------------------------- sweep_builtin

/** Training steps of every sweep_builtin point. */
constexpr std::uint32_t kBuiltinSteps = 4;

/** One sweep_builtin grid point. */
struct BuiltinPoint
{
    hpim::baseline::SystemKind kind =
        hpim::baseline::SystemKind::HeteroPim;
    hpim::nn::ModelId model = hpim::nn::ModelId::AlexNet;
    double freqScale = 1.0;
    std::uint32_t progrPims = 1;
    /** Hetero runtime features; only the RC/OP variants clear one. */
    bool rc = true;
    bool op = true;

    /** True for the RC/OP variants, which need makeHetero(). */
    bool featureVariant() const { return !rc || !op; }
};

/**
 * The design-space grid over the five CNN models: every Fig. 8
 * system, Hetero at freq {1,2,4} x progr-PIMs {1,4,16}, and Hetero
 * with RC/OP switched off in turn. Distinct points only.
 */
std::vector<BuiltinPoint> builtinGrid();

/** SystemConfig of an RC/OP variant (featureVariant() points). */
hpim::rt::SystemConfig builtinVariantConfig(const BuiltinPoint &point);

// ---------------------------------------------------------- sweep_faults

/** Training steps of every sweep_faults point. */
constexpr std::uint32_t kFaultSteps = 4;

/** One fault-injected Hetero point. */
struct FaultPoint
{
    hpim::nn::ModelId model = hpim::nn::ModelId::AlexNet;
    std::uint32_t killBanks = 0;
    double transientRate = 0.0;
    double stallRate = 0.0;
    std::uint64_t faultSeed = 0;
};

/**
 * Fault seeds per (model, kills, rates) config. The slowest points --
 * the heaviest faults on the largest models -- set the p99, so with
 * several seeds each that tail is an order statistic over many draws
 * rather than one seed's luck.
 */
constexpr std::size_t kFaultSeedsPerConfig = 3;

/**
 * Five CNN models x kill-bank counts x transient/stall rates, the
 * axes of bench/fault_sweep, x kFaultSeedsPerConfig fault seeds drawn
 * from @p seed.
 */
std::vector<FaultPoint> faultGrid(std::uint64_t seed);

/** Hetero SystemConfig with @p point's fault injection armed. */
hpim::rt::SystemConfig faultConfig(const FaultPoint &point);

// ----------------------------------------------------- sweep_user_graphs

/**
 * A training or inference graph authored with nn::Builder: a CNN, an
 * MLP or a transformer stack of roughly 40-530 ops. Family, mode and
 * depth follow @p index; @p seed picks the layer details. About half
 * the CNNs open with one of a few shared stems, so a fixed share of
 * layer shapes (op signatures) repeats across documents.
 */
hpim::nn::Graph userGraph(std::uint64_t seed, std::size_t index);

/** userGraph() serialized through nn::graphToJson. */
std::string userGraphDocument(std::uint64_t seed, std::size_t index);

/** One sweep_user_graphs point: a document at a Hetero config. */
struct UserGraphPoint
{
    std::size_t doc = 0; ///< index into UserGraphStream::docs
    double freqScale = 1.0;
    std::uint32_t progrPims = 1;
};

/** The documents and the seeded point stream over them. */
struct UserGraphStream
{
    std::vector<std::string> docs;          ///< the population
    std::vector<UserGraphPoint> distinct;   ///< distinct points drawn
    std::vector<std::size_t> stream;        ///< indices into distinct
};

/** Documents in the sweep_user_graphs population. */
constexpr std::size_t kUserGraphPopulation = 320;
/** Points per sweep_user_graphs pass. */
constexpr std::size_t kUserGraphStreamLength = 900;
/** Memo-cache entry cap of the sweep_user_graphs sweep. */
constexpr std::size_t kUserGraphCacheEntries = 1500;

/**
 * Draw kUserGraphStreamLength points: a Zipf(0.9)-skewed document
 * (document i at rank i, stratified so every seed draws the same
 * ranks in its own order) at one of four neighbouring freq/progr
 * configs.
 */
UserGraphStream userGraphStream(std::uint64_t seed);

// ----------------------------------------------------------------- serve

/**
 * Send offsets (seconds from the schedule start) of a Poisson arrival
 * process at @p rate per second over @p seconds, drawn from
 * (seed, stream).
 */
std::vector<double> poissonSchedule(std::uint64_t seed,
                                    std::uint64_t stream, double rate,
                                    double seconds);

/** What one served request exercises. */
enum class RequestClass : std::uint8_t
{
    Builtin,   ///< built-in model, memo-warm after warm-up
    UserGraph, ///< a graph document
    Fault,     ///< built-in model with a transient fault rate
};

/** The distinct simulate requests a serve run draws from. */
struct RequestPool
{
    std::vector<hpim::serve::SimulateSpec> specs;
    std::vector<RequestClass> classes; ///< index-aligned with specs
    /** Indices of the Builtin specs (the warm-up set). */
    std::vector<std::size_t> builtin;
    std::vector<std::size_t> userGraph;
    std::vector<std::size_t> fault;
};

/** Built-in, user-graph and fault specs for @p seed. */
RequestPool requestPool(std::uint64_t seed, std::size_t user_docs);

/** Share of served requests that inject faults. */
constexpr double kFaultShare = 0.05;

/**
 * For each of @p count requests, the pool index it sends: a seeded
 * class mix drawn from (seed, stream) -- kFaultShare faults,
 * @p doc_share documents, built-in models otherwise. Documents are
 * taken in a seeded rotation starting at @p doc_cursor, which
 * advances, so each document is sent once before any repeats.
 */
std::vector<std::size_t> requestMix(const RequestPool &pool,
                                    std::uint64_t seed,
                                    std::uint64_t stream,
                                    std::size_t count, double doc_share,
                                    std::size_t &doc_cursor);

/**
 * The request sequence of one closed-loop window of @p count requests:
 * the first @p docs graph documents of @p pool once each, kFaultShare
 * fault requests and built-in requests for the rest, each class cycling
 * through its specs, in an order drawn from @p seed. Every seed sends
 * the same number of each class, and a document's family, mode and
 * depth follow its index, so windows of different seeds do comparable
 * work.
 */
std::vector<std::size_t> windowMix(const RequestPool &pool,
                                   std::uint64_t seed, std::size_t count,
                                   std::size_t docs);

/** Fisher-Yates permutation of [0, n) drawn from (seed, purpose,
 *  stream). */
std::vector<std::size_t> seededOrder(std::size_t n, std::uint64_t seed,
                                     const char *purpose,
                                     std::uint64_t stream);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
