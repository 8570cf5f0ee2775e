#include "nn/graph.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hpim::nn {

Graph::Graph(std::string name) : _body(std::make_shared<Body>())
{
    _body->signature = hpim::sim::hashString(name);
    _body->name = std::move(name);
}

Graph::Graph(const Graph &other) noexcept
    : _body(other._body), _shared(true)
{
    other._shared.store(true, std::memory_order_relaxed);
}

Graph &
Graph::operator=(const Graph &other) noexcept
{
    other._shared.store(true, std::memory_order_relaxed);
    _body = other._body;
    _shared.store(true, std::memory_order_relaxed);
    return *this;
}

OpId
Graph::add(OpType type, std::string label, CostStructure cost,
           FixedParallelism parallelism, std::vector<OpId> inputs)
{
    // Not use_count(): it reads the count without acquiring, so a
    // count of one would not order this write after the reads of a
    // copy another thread just dropped.
    if (_shared.load(std::memory_order_relaxed)) {
        _body = std::make_shared<Body>(*_body);
        _shared.store(false, std::memory_order_relaxed);
    }
    Body &body = *_body;

    OpId id = static_cast<OpId>(body.ops.size());
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

    body.consumers.emplace_back();
    for (OpId in : op.inputs)
        body.consumers[in].push_back(id);

    // Fold this op into the structural signature (see graph.hh).
    using hpim::sim::hashDouble;
    using hpim::sim::hashString;
    using hpim::sim::hashU64;
    std::uint64_t h = hashU64(static_cast<std::uint64_t>(type),
                              body.signature);
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
    body.signature = h;

    body.ops.push_back(std::move(op));
    return id;
}

std::size_t
Graph::checkedIndex(OpId id) const
{
    panic_if(id >= size(), "op id ", id, " out of range");
    return id;
}

const Operation &
Graph::op(OpId id) const
{
    return _body->ops[checkedIndex(id)];
}

std::vector<OpId>
Graph::topoOrder() const
{
    std::vector<OpId> order(size());
    for (OpId i = 0; i < size(); ++i)
        order[i] = i;
    return order;
}

std::vector<OpId>
Graph::readyOps(const std::vector<bool> &done) const
{
    panic_if(done.size() != size(), "done vector size mismatch");
    std::vector<OpId> ready;
    for (const Operation &op : ops()) {
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
    for (const Operation &op : ops())
        total += op.cost;
    return total;
}

std::size_t
Graph::countType(OpType type) const
{
    return static_cast<std::size_t>(
        std::count_if(ops().begin(), ops().end(),
                      [type](const Operation &o) {
                          return o.type == type;
                      }));
}

std::size_t
Graph::criticalPathLength() const
{
    std::vector<std::size_t> depth(size(), 1);
    std::size_t longest = size() == 0 ? 0 : 1;
    for (const Operation &op : ops()) {
        for (OpId in : op.inputs)
            depth[op.id] = std::max(depth[op.id], depth[in] + 1);
        longest = std::max(longest, depth[op.id]);
    }
    return longest;
}

} // namespace hpim::nn
