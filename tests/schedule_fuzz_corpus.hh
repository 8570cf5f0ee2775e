/**
 * @file
 * The random (graph, config) corpora behind the ScheduleFuzz tests,
 * shared with test_dispatch_identity so both walk exactly the same
 * points: random DAG shapes, op mixes and batch sizes, user-style
 * nn::Builder DAGs, random SystemConfigs (pipeline window, PIM
 * counts, pimManaged guests) and random fault schedules.
 *
 * Each point draws from its own sim::Rng stream
 * (Rng::streamSeed(base, i)), so a point reproduces from its index.
 */

#ifndef HPIM_TESTS_SCHEDULE_FUZZ_CORPUS_HH
#define HPIM_TESTS_SCHEDULE_FUZZ_CORPUS_HH

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "nn/graph.hh"
#include "nn/graph_builder.hh"
#include "nn/op_cost.hh"
#include "rt/executor.hh"
#include "rt/schedule_trace.hh"
#include "rt/system_config.hh"
#include "sim/rng.hh"

namespace schedule_fuzz {

using namespace hpim;
using nn::OpType;

constexpr std::size_t numFuzzPoints = 200;
constexpr std::size_t numBuilderPoints = 100;
constexpr std::uint64_t fuzzBaseSeed = 0xf022ed5eedULL;
constexpr std::uint64_t faultFuzzBaseSeed = 0xfa17f022edULL;
constexpr std::uint64_t builderFuzzBaseSeed = 0xb117de2f022ULL;

/** Append one random op, depending on up to 3 earlier ops. */
inline void
addRandomOp(nn::Graph &graph, sim::Rng &rng, std::uint32_t index,
            std::int64_t batch)
{
    std::vector<nn::OpId> inputs;
    if (index > 0) {
        std::set<nn::OpId> chosen;
        std::uint64_t fanin = rng.below(4);
        for (std::uint64_t d = 0; d < fanin; ++d)
            chosen.insert(
                static_cast<nn::OpId>(rng.below(index)));
        inputs.assign(chosen.begin(), chosen.end());
    }

    std::string label = "op" + std::to_string(index);
    switch (rng.below(10)) {
      case 0: { // fully fixed-function: matmul
        std::int64_t m = batch;
        std::int64_t k = rng.inRange(4, 64);
        std::int64_t n = rng.inRange(4, 64);
        graph.add(OpType::MatMul, label, nn::matmulCost(m, k, n),
                  nn::fixedParallelism(OpType::MatMul, k,
                                       double(m * n)),
                  inputs);
        break;
      }
      case 1: { // fully fixed-function: conv
        nn::TensorShape in{batch, rng.inRange(8, 32),
                           rng.inRange(8, 32), rng.inRange(1, 16)};
        std::int64_t k = 1 + 2 * rng.inRange(0, 2); // 1/3/5
        std::int64_t c_out = rng.inRange(1, 32);
        graph.add(OpType::Conv2D, label,
                  nn::conv2dCost(in, k, c_out, 1),
                  nn::fixedParallelism(OpType::Conv2D, k * k * in.dim(3),
                                       double(in.dim(1) * in.dim(2)
                                              * c_out)),
                  inputs);
        break;
      }
      case 2: { // elementwise fixed-function
        OpType type = rng.chance(0.5) ? OpType::Mul : OpType::Add;
        nn::TensorShape shape{batch, rng.inRange(16, 512)};
        graph.add(type, label, nn::elementwiseCost(type, shape),
                  nn::fixedParallelism(type, 1, double(shape.elems())),
                  inputs);
        break;
      }
      case 3: { // recursive-class: matmul gradient
        std::int64_t m = batch;
        std::int64_t k = rng.inRange(4, 64);
        std::int64_t n = rng.inRange(4, 64);
        OpType type = rng.chance(0.5) ? OpType::MatMulGradWeights
                                      : OpType::MatMulGradInputs;
        graph.add(type, label, nn::matmulCost(m, k, n),
                  nn::fixedParallelism(type, k, double(m * n)),
                  inputs);
        break;
      }
      case 4: { // recursive-class: conv filter gradient
        nn::TensorShape in{batch, rng.inRange(8, 16),
                           rng.inRange(8, 16), rng.inRange(1, 8)};
        std::int64_t k = 3;
        std::int64_t c_out = rng.inRange(1, 16);
        graph.add(OpType::Conv2DBackpropFilter, label,
                  nn::conv2dBackpropFilterCost(in, k, c_out, 1),
                  nn::fixedParallelism(OpType::Conv2DBackpropFilter,
                                       k * k * in.dim(3),
                                       double(in.dim(1) * in.dim(2))),
                  inputs);
        break;
      }
      case 5: { // recursive-class: bias gradient
        nn::TensorShape shape{batch, rng.inRange(8, 32),
                              rng.inRange(8, 32), rng.inRange(1, 16)};
        graph.add(OpType::BiasAddGrad, label,
                  nn::biasAddGradCost(shape, shape.dim(3)),
                  nn::fixedParallelism(OpType::BiasAddGrad,
                                       shape.elems()
                                           / std::max<std::int64_t>(
                                               shape.dim(3), 1),
                                       double(shape.dim(3))),
                  inputs);
        break;
      }
      case 6: { // programmable-only activation
        OpType type = rng.chance(0.5)
                          ? OpType::Relu
                          : (rng.chance(0.5) ? OpType::Tanh
                                             : OpType::Sigmoid);
        nn::TensorShape shape{batch, rng.inRange(16, 256)};
        graph.add(type, label, nn::activationCost(type, shape),
                  nn::fixedParallelism(type, 1, 0.0), inputs);
        break;
      }
      case 7: { // programmable-only pooling
        nn::TensorShape in{batch, rng.inRange(8, 32),
                           rng.inRange(8, 32), rng.inRange(1, 16)};
        graph.add(OpType::MaxPool, label,
                  nn::poolCost2d(OpType::MaxPool, in, 2, 2, 2, 2),
                  nn::fixedParallelism(OpType::MaxPool, 1, 0.0),
                  inputs);
        break;
      }
      case 8: { // programmable-only optimizer step
        graph.add(OpType::ApplyAdam, label,
                  nn::applyAdamCost(rng.inRange(256, 1 << 16)),
                  nn::fixedParallelism(OpType::ApplyAdam, 1, 0.0),
                  inputs);
        break;
      }
      default: { // data movement
        OpType type = rng.chance(0.5) ? OpType::Slice : OpType::Concat;
        graph.add(type, label,
                  nn::dataMovementCost(
                      double(rng.inRange(1 << 10, 1 << 22))),
                  nn::fixedParallelism(type, 1, 0.0), inputs);
        break;
      }
    }
}

inline nn::Graph
randomGraph(sim::Rng &rng, const std::string &name)
{
    nn::Graph graph(name);
    std::int64_t batch = 1 << rng.inRange(0, 6); // 1..64
    auto ops = static_cast<std::uint32_t>(rng.inRange(5, 40));
    for (std::uint32_t i = 0; i < ops; ++i)
        addRandomOp(graph, rng, i, batch);
    return graph;
}

/**
 * A random but always shape-legal DAG through the public nn::Builder
 * (docs/GRAPHS.md): an NHWC conv/pool/norm phase, flatten, then a
 * rank-2 phase mixing dense layers, residual adds, and attention
 * motifs (matmul over a transpose, softmax, mix), closed either as a
 * training step (random optimizer, random extra loss Muls) or
 * forward-only. Exercises the same autodiff/fan-out machinery user
 * graphs go through before they reach the executor.
 */
inline nn::Graph
randomBuilderGraph(sim::Rng &rng, const std::string &name)
{
    nn::Builder b(name);
    std::int64_t batch = 1 << rng.inRange(0, 4); // 1..16
    nn::TensorRef x = b.input(
        nn::TensorShape{batch, 8 * rng.inRange(1, 4),
                        8 * rng.inRange(1, 4), rng.inRange(1, 8)});

    auto spatial_ops = static_cast<std::uint32_t>(rng.inRange(1, 5));
    for (std::uint32_t i = 0; i < spatial_ops; ++i) {
        std::int64_t h = b.shape(x).dim(1), w = b.shape(x).dim(2);
        switch (rng.below(5)) {
          case 0: {
            std::int64_t k = 1 + 2 * rng.inRange(0, 2); // 1/3/5
            if (k > std::min(h, w))
                k = 1;
            x = b.conv2d(x, k, rng.inRange(1, 16),
                         rng.chance(0.3) ? 2 : 1, rng.chance(0.7));
            break;
          }
          case 1:
            if (h >= 2 && w >= 2) {
                // Occasionally a non-square window/stride.
                if (rng.chance(0.3) && h >= 3)
                    x = b.maxPool(x, 3, 2, 3, 2);
                else if (rng.chance(0.5))
                    x = b.maxPool(x, 2, 2);
                else
                    x = b.avgPool(x, 2, 2);
            }
            break;
          case 2: x = b.batchNorm(x); break;
          case 3: x = b.dropout(x); break;
          default: x = b.relu(x); break;
        }
    }
    x = b.flatten(x);

    auto flat_ops = static_cast<std::uint32_t>(rng.inRange(1, 6));
    nn::TensorRef prev = x;
    for (std::uint32_t i = 0; i < flat_ops; ++i) {
        nn::TensorRef before = x;
        switch (rng.below(7)) {
          case 0: x = b.dense(x, rng.inRange(8, 64), rng.chance(0.5));
                  break;
          case 1: x = b.layerNorm(x); break;
          case 2: x = b.dropout(x); break;
          case 3: x = rng.chance(0.5) ? b.tanh(x) : b.sigmoid(x);
                  break;
          case 4: x = b.mulChain(x); break;
          case 5: { // attention motif: x @ x^T, softmax, re-mix
            if (b.shape(x).dim(0) <= 64) {
                auto scores = b.matmul(x, b.transpose(x));
                x = b.matmul(b.softmax(scores), x);
            }
            break;
          }
          default: // residual fan-out when the shape allows it
            if (b.shape(x) == b.shape(prev))
                x = rng.chance(0.5) ? b.add(x, prev) : b.mul(x, prev);
            break;
        }
        prev = before;
    }

    auto logits = b.dense(x, rng.inRange(2, 32), false);
    if (rng.chance(0.6)) {
        return b.trainingStep(logits,
                              rng.chance(0.5) ? nn::Optimizer::Adam
                                              : nn::Optimizer::Sgd,
                              rng.below(3));
    }
    return b.finishForward();
}

inline rt::SystemConfig
randomConfig(sim::Rng &rng)
{
    rt::SystemConfig config;
    config.name = "fuzz";
    config.hasFixedPim = rng.chance(0.7);
    config.hasProgrPim = rng.chance(0.7);
    config.progrPimCount =
        config.hasProgrPim
            ? static_cast<std::uint32_t>(rng.inRange(1, 4))
            : 1;
    config.dynamicScheduling = rng.chance(0.5);
    // RC needs both the programmable PIM (control part) and the
    // fixed pool (multiply/add part).
    config.recursiveKernels =
        config.hasProgrPim && config.hasFixedPim && rng.chance(0.5);
    config.operationPipeline = rng.chance(0.5);
    config.pipelineDepth =
        static_cast<std::uint32_t>(rng.inRange(1, 3));
    config.fixed.totalUnits =
        static_cast<std::uint32_t>(rng.inRange(16, 444));
    config.hostDrivenMaxUnits =
        static_cast<std::uint32_t>(rng.inRange(8, 192));
    config.offloadCoveragePct = rng.uniform(30.0, 99.0);
    config.hostCoordinationFloor = rng.uniform(0.0, 0.75);
    return config;
}

/** Arm the resilience layer with a random fault schedule. */
inline void
randomFaults(rt::SystemConfig &config, sim::Rng &rng)
{
    config.faults.enabled = true;
    config.faults.seed = rng.next();
    // Mostly moderate rates, occasionally certain failure so the
    // degradation ladder's CPU rung gets exercised too.
    config.faults.transientRatePerOp =
        rng.chance(0.15) ? 1.0 : rng.uniform(0.0, 0.05);
    config.faults.stallRatePerOp =
        rng.chance(0.1) ? 1.0 : rng.uniform(0.0, 0.02);
    config.faults.maxAttempts =
        static_cast<std::uint32_t>(rng.inRange(1, 4));
    config.faults.killBanks = static_cast<std::uint32_t>(
        rng.below(std::max(config.fixed.banks / 2, 1u) + 1));
    config.faults.killSpreadSec = rng.uniform(1e-4, 0.05);
    // Sometimes drop the threshold below the solved bank
    // temperatures so throttling actually engages.
    config.faults.throttleTempC =
        rng.chance(0.3) ? rng.uniform(0.0, 50.0) : 85.0;
    config.faults.throttlePeriodSec = rng.uniform(5e-4, 5e-3);
    config.faults.throttleDutyFrac = rng.uniform(0.1, 0.9);
}

/** One executed point: its inputs, schedule and report. */
struct FuzzRun
{
    rt::SystemConfig config;
    std::vector<nn::Graph> graphs;    ///< [workload]
    std::vector<std::uint32_t> steps; ///< [workload]
    std::vector<bool> managed;        ///< [workload]
    rt::ScheduleTrace trace;
    rt::ExecutionReport report;

    std::vector<const nn::Graph *>
    graphPointers() const
    {
        std::vector<const nn::Graph *> out;
        for (const nn::Graph &graph : graphs)
            out.push_back(&graph);
        return out;
    }

    /** Execute the drawn workloads, every op a candidate. */
    void
    execute()
    {
        std::vector<rt::WorkloadSpec> workloads;
        for (std::size_t i = 0; i < graphs.size(); ++i) {
            rt::WorkloadSpec spec;
            spec.graph = &graphs[i];
            spec.steps = steps[i];
            spec.pimManaged = managed[i];
            workloads.push_back(spec);
        }
        rt::Executor executor(config);
        executor.attachTrace(&trace);
        report = executor.run(workloads);
    }
};

/**
 * Draw and run one random-DAG point: a random graph under a random
 * config (with a random fault schedule when @p with_faults),
 * sometimes co-run with a random guest, sometimes demoted
 * (pimManaged=false).
 */
inline FuzzRun
randomPoint(std::size_t index, sim::Rng &rng, bool with_faults)
{
    FuzzRun run;
    run.config = randomConfig(rng);
    if (with_faults)
        randomFaults(run.config, rng);
    run.graphs.push_back(
        randomGraph(rng, "fuzz" + std::to_string(index)));
    run.steps.push_back(static_cast<std::uint32_t>(rng.inRange(1, 3)));
    run.managed.push_back(true);

    if (rng.chance(0.3)) {
        run.graphs.push_back(
            randomGraph(rng, "guest" + std::to_string(index)));
        run.steps.push_back(
            static_cast<std::uint32_t>(rng.inRange(1, 2)));
        run.managed.push_back(rng.chance(0.5));
    }
    run.execute();
    return run;
}

/** Draw and run one random nn::Builder-DAG point. */
inline FuzzRun
builderPoint(std::size_t index, sim::Rng &rng)
{
    FuzzRun run;
    run.config = randomConfig(rng);
    run.graphs.push_back(
        randomBuilderGraph(rng, "builder" + std::to_string(index)));
    run.steps.push_back(static_cast<std::uint32_t>(rng.inRange(1, 3)));
    run.managed.push_back(true);
    run.execute();
    return run;
}

} // namespace schedule_fuzz

#endif // HPIM_TESTS_SCHEDULE_FUZZ_CORPUS_HH
