/**
 * @file
 * The training-step operation graph (DAG).
 *
 * One Graph describes a single training step: every operation instance
 * with its cost structure, fixed-function parallelism and dependences.
 * The runtime replays the same graph for every step (paper SectionIII-C:
 * "all steps almost have the same classes of operations").
 */

#ifndef HPIM_NN_GRAPH_HH
#define HPIM_NN_GRAPH_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/op_cost.hh"
#include "nn/op_type.hh"
#include "sim/hash.hh"

namespace hpim::nn {

/** Stable identifier of an operation within its graph. */
using OpId = std::uint32_t;

/** Sentinel for "no op". */
constexpr OpId invalidOp = ~OpId(0);

/** One operation instance in a training step. */
struct Operation
{
    OpId id = invalidOp;
    OpType type = OpType::MatMul;
    std::string label;          ///< human-readable, e.g. "conv3_2/fprop"
    CostStructure cost;
    FixedParallelism parallelism;
    std::vector<OpId> inputs;   ///< producer op ids

    /** Work (flops) that can execute on fixed-function PIMs. */
    double
    fixedWork() const
    {
        return hasFixedPortion(type) ? cost.flops() : 0.0;
    }

    /** Work that must run on a programmable device. */
    double specialWork() const { return cost.specials; }
};

/**
 * A training-step DAG.
 *
 * A value whose copies share one body: name, ops and the signature.
 * Copying a built model allocates nothing, which is what lets
 * sim::MemoCache hand the same graph to every sweep point.
 * Copying marks both graphs shared, and add() on a shared graph
 * clones the body first, so a body that any copy has seen is never
 * written again: threads may read and copy one graph while others
 * add() to their own copies. Moving copies too, so a moved-from graph
 * still answers every query as before.
 */
class Graph
{
  public:
    explicit Graph(std::string name);

    Graph(const Graph &other) noexcept;
    Graph &operator=(const Graph &other) noexcept;

    /**
     * Append an operation.
     * @return its id (ids are dense, insertion ordered)
     */
    OpId add(OpType type, std::string label, CostStructure cost,
             FixedParallelism parallelism,
             std::vector<OpId> inputs = {});

    /** Make room for @p ops operations in all, so add() up to that
     *  count does not reallocate. */
    void reserve(std::size_t ops);

    const Operation &op(OpId id) const;
    std::size_t size() const { return _body->ops.size(); }
    const std::vector<Operation> &ops() const { return _body->ops; }
    const std::string &name() const { return _body->name; }

    /**
     * @return ids in a valid topological order.
     * Since inputs must precede their consumers at add() time, the
     * insertion order is already topological; this validates it.
     */
    std::vector<OpId> topoOrder() const;

    /** @return ops with no unfinished producers given @p done flags. */
    std::vector<OpId> readyOps(const std::vector<bool> &done) const;

    /** Sum of all op costs. */
    CostStructure totalCost() const;

    /** Number of ops of the given type. */
    std::size_t countType(OpType type) const;

    /** Longest path length (in ops) -- a depth/parallelism measure. */
    std::size_t criticalPathLength() const;

    /**
     * Deterministic structural digest over the name and every op
     * (type, label, cost, parallelism, inputs), folded incrementally
     * by add() one 64-bit word per field. Two graphs with equal
     * signatures went through the same construction, unless 64 bits
     * collide; sim::MemoCache and sweep journals key on it.
     */
    std::uint64_t signature() const { return _body->signature; }

  private:
    /** Bounds-checked id -> index (panics on a foreign id). */
    std::size_t checkedIndex(OpId id) const;

    /** What copies share. */
    struct Body
    {
        std::string name;
        std::vector<Operation> ops;
        std::uint64_t signature = 0;
    };

    /** The body, cloned first if another graph holds or held it. */
    Body &ownBody();

    std::shared_ptr<Body> _body;
    /** Another graph holds, or held, this body (set by copies). */
    mutable std::atomic<bool> _shared{false};
};

/**
 * The consumers of every op of one graph (its reverse adjacency) in
 * two flat arrays. Op i's consumers are ids[offsets[i]] up to
 * ids[offsets[i + 1]], in op-id order, once per input edge.
 */
struct ConsumerLists
{
    std::vector<std::size_t> offsets; ///< one per op, plus the end
    std::vector<OpId> ids;

    /** @return the consumers of op @p id. */
    std::span<const OpId>
    of(OpId id) const
    {
        return {ids.data() + offsets[id], ids.data() + offsets[id + 1]};
    }
};

/** @return the consumer lists of @p graph. */
ConsumerLists consumerLists(const Graph &graph);

} // namespace hpim::nn

#endif // HPIM_NN_GRAPH_HH
