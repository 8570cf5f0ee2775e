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
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nn/op_cost.hh"
#include "nn/op_type.hh"
#include "sim/hash.hh"

namespace hpim::nn {

/** Stable identifier of an operation within its graph. */
using OpId = std::uint32_t;

/** Sentinel for "no op". */
constexpr OpId invalidOp = ~OpId(0);

/**
 * One operation instance in a training step. Its label and inputs sit
 * in its graph's flat arrays, and the graph hands them out
 * (Graph::label(), Graph::inputs()).
 */
struct Operation
{
    OpId id = invalidOp;
    OpType type = OpType::MatMul;
    CostStructure cost;
    FixedParallelism parallelism;

  private:
    friend class Graph;
    /** Where the label and the inputs sit in the graph's arrays. */
    std::uint32_t _labelAt = 0, _labelSize = 0;
    std::uint32_t _inputsAt = 0, _inputCount = 0;
};

/**
 * A training-step DAG.
 *
 * A value whose copies share one body: the name, the op records, one
 * char array holding every label back to back, one OpId array holding
 * every op's inputs back to back, and the signature. So an op costs no
 * allocation of its own, and copying a built model allocates nothing,
 * which is what lets sim::MemoCache hand the same graph to every sweep
 * point. Copying marks both graphs shared, and add() on a shared graph
 * clones the body first, so a body that any copy has seen is never
 * written again: threads may read and copy one graph while others
 * add() to their own copies. Moving copies too, so a moved-from graph
 * still answers every query as before.
 *
 * op(), ops(), label() and inputs() return references and views into
 * the body. add() invalidates those taken from the graph it is called
 * on, as a std::vector's push_back() does; those taken from any other
 * graph, a copy included, stay valid.
 */
class Graph
{
  public:
    explicit Graph(std::string name);

    Graph(const Graph &other) noexcept;
    Graph &operator=(const Graph &other) noexcept;

    /**
     * Append an operation, copying @p label and @p inputs into the
     * body (either may view this very graph). Fatal when an input does
     * not precede the new op, or when the labels or the inputs of the
     * graph would pass 2^32 bytes or ids in all.
     * @return its id (ids are dense, insertion ordered)
     */
    OpId add(OpType type, std::string_view label, CostStructure cost,
             FixedParallelism parallelism,
             std::span<const OpId> inputs = {});

    /** add() with the inputs written in place: g.add(..., {a, b}). */
    OpId
    add(OpType type, std::string_view label, CostStructure cost,
        FixedParallelism parallelism, std::initializer_list<OpId> inputs)
    {
        return add(type, label, cost, parallelism,
                   std::span<const OpId>(inputs.begin(), inputs.size()));
    }

    /** Make room for @p ops operations, @p label_bytes bytes of labels
     *  and @p inputs input ids in all, so add() within those counts
     *  does not reallocate. */
    void reserve(std::size_t ops, std::size_t label_bytes = 0,
                 std::size_t inputs = 0);

    /** @return op @p id (panics on a foreign id). */
    const Operation &
    op(OpId id) const
    {
        if (id >= size())
            badId(id);
        return _body->ops[id];
    }

    std::size_t size() const { return _body->ops.size(); }
    const std::vector<Operation> &ops() const { return _body->ops; }
    const std::string &name() const { return _body->name; }

    /** @return the label of op @p id, e.g. "conv3_2/fprop". */
    std::string_view label(OpId id) const;

    /** @return the producers of op @p id, in the order add() got them. */
    std::span<const OpId> inputs(OpId id) const;

    /** Sum of all op costs. */
    CostStructure totalCost() const;

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
    /** Panic on @p id, which no op of this graph has. */
    [[noreturn]] void badId(OpId id) const;

    /** What copies share. */
    struct Body
    {
        std::string name;
        std::vector<Operation> ops;
        std::vector<char> labels; ///< every op's label, back to back
        std::vector<OpId> inputs; ///< every op's inputs, back to back
        std::uint64_t signature = 0;
    };

    /** Clone the body first if another graph holds or held it.
     *  @return the body it was cloned from, or null. */
    std::shared_ptr<Body> ownBody();

    std::shared_ptr<Body> _body;
    /** Another graph holds, or held, this body (set by copies). */
    mutable std::atomic<bool> _shared{false};
};

inline std::string_view
Graph::label(OpId id) const
{
    const Operation &o = op(id);
    // subspan() checks the range when _GLIBCXX_ASSERTIONS is on.
    const auto bytes = std::span<const char>(_body->labels)
                           .subspan(o._labelAt, o._labelSize);
    return {bytes.data(), bytes.size()};
}

inline std::span<const OpId>
Graph::inputs(OpId id) const
{
    const Operation &o = op(id);
    return std::span<const OpId>(_body->inputs)
        .subspan(o._inputsAt, o._inputCount);
}

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
