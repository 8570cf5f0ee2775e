#include "nn/graph.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hpim::nn {

OpId
Graph::add(OpType type, std::string label, CostStructure cost,
           FixedParallelism parallelism, std::vector<OpId> inputs)
{
    OpId id = static_cast<OpId>(_ops.size());
    for (OpId in : inputs) {
        fatal_if(in >= id, "op '", label, "' depends on op ", in,
                 " which does not precede it");
    }

    Operation op;
    op.id = id;
    op.type = type;
    op.label = std::move(label);
    op.cost = cost;
    op.parallelism = parallelism;
    op.inputs = std::move(inputs);

    _consumers.emplace_back();
    for (OpId in : op.inputs)
        _consumers[in].push_back(id);

    // Fold this op into the structural signature (see graph.hh).
    using hpim::sim::hashDouble;
    using hpim::sim::hashString;
    using hpim::sim::hashU64;
    std::uint64_t h = hashU64(static_cast<std::uint64_t>(type),
                              _signature);
    h = hashString(op.label, h);
    h = hashDouble(cost.muls, h);
    h = hashDouble(cost.adds, h);
    h = hashDouble(cost.specials, h);
    h = hashDouble(cost.bytesRead, h);
    h = hashDouble(cost.bytesWritten, h);
    h = hashU64(parallelism.unitsPerLane, h);
    h = hashDouble(parallelism.lanes, h);
    for (OpId in : op.inputs)
        h = hashU64(in, h);
    _signature = h;

    // Position-independent per-op digest: everything that determines
    // the op's cost on any device model (type, cost fields, fixed
    // parallelism) and nothing that merely locates or names it
    // (label, id, inputs). Delta-evaluation keys on it (graph.hh).
    std::uint64_t op_sig = hashU64(static_cast<std::uint64_t>(type));
    op_sig = hashDouble(cost.muls, op_sig);
    op_sig = hashDouble(cost.adds, op_sig);
    op_sig = hashDouble(cost.specials, op_sig);
    op_sig = hashDouble(cost.bytesRead, op_sig);
    op_sig = hashDouble(cost.bytesWritten, op_sig);
    op_sig = hashU64(parallelism.unitsPerLane, op_sig);
    op_sig = hashDouble(parallelism.lanes, op_sig);
    _op_signatures.push_back(op_sig);

    _ops.push_back(std::move(op));
    return id;
}

std::size_t
Graph::checkedIndex(OpId id) const
{
    panic_if(id >= _ops.size(), "op id ", id, " out of range");
    return id;
}

const Operation &
Graph::op(OpId id) const
{
    panic_if(id >= _ops.size(), "op id ", id, " out of range");
    return _ops[id];
}

std::vector<OpId>
Graph::topoOrder() const
{
    std::vector<OpId> order(_ops.size());
    for (OpId i = 0; i < _ops.size(); ++i)
        order[i] = i;
    return order;
}

std::vector<OpId>
Graph::readyOps(const std::vector<bool> &done) const
{
    panic_if(done.size() != _ops.size(), "done vector size mismatch");
    std::vector<OpId> ready;
    for (const Operation &op : _ops) {
        if (done[op.id])
            continue;
        bool all_in = std::all_of(
            op.inputs.begin(), op.inputs.end(),
            [&done](OpId in) { return done[in]; });
        if (all_in)
            ready.push_back(op.id);
    }
    return ready;
}

CostStructure
Graph::totalCost() const
{
    CostStructure total;
    for (const Operation &op : _ops)
        total += op.cost;
    return total;
}

std::size_t
Graph::countType(OpType type) const
{
    return static_cast<std::size_t>(
        std::count_if(_ops.begin(), _ops.end(),
                      [type](const Operation &o) {
                          return o.type == type;
                      }));
}

std::size_t
Graph::criticalPathLength() const
{
    std::vector<std::size_t> depth(_ops.size(), 1);
    std::size_t longest = _ops.empty() ? 0 : 1;
    for (const Operation &op : _ops) {
        for (OpId in : op.inputs)
            depth[op.id] = std::max(depth[op.id], depth[in] + 1);
        longest = std::max(longest, depth[op.id]);
    }
    return longest;
}

} // namespace hpim::nn
