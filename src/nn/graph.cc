#include "nn/graph.hh"

#include <algorithm>
#include <bit>
#include <string_view>

#include "sim/logging.hh"

namespace hpim::nn {

namespace {

/**
 * Fold one 64-bit word into @p hash: a multiply carries low bits up,
 * the xorshift carries high bits down. For a fixed @p hash distinct
 * words give distinct results, and for a fixed word distinct hashes
 * do, so changing one word of a graph's folded sequence always
 * changes its signature. A change that also adds or drops words (a
 * label's length, an input count) changes it unless 64 bits collide.
 */
std::uint64_t
fold(std::uint64_t hash, std::uint64_t word)
{
    hash = (hash ^ word) * 0x9e3779b97f4a7c15ULL;
    return hash ^ (hash >> 32);
}

std::uint64_t
foldDouble(std::uint64_t hash, double value)
{
    return fold(hash, std::bit_cast<std::uint64_t>(value));
}

/** @return up to 8 bytes at @p bytes as a little-endian word, so the
 *  fold is the same on every host. */
std::uint64_t
littleEndianWord(const char *bytes, std::size_t count)
{
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < count; ++i)
        word |= std::uint64_t(static_cast<unsigned char>(bytes[i]))
                << (8 * i);
    return word;
}

/** Fold @p text's length, then its bytes 8 at a time (the last word
 *  zero-padded; the length tells "ab" from "ab\0"). */
std::uint64_t
foldText(std::uint64_t hash, std::string_view text)
{
    hash = fold(hash, text.size());
    std::size_t i = 0;
    for (; i + 8 <= text.size(); i += 8)
        hash = fold(hash, littleEndianWord(text.data() + i, 8));
    if (i < text.size())
        hash = fold(hash, littleEndianWord(text.data() + i,
                                           text.size() - i));
    return hash;
}

} // namespace

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

Graph::Body &
Graph::ownBody()
{
    // Not use_count(): it reads the count without acquiring, so a
    // count of one would not order this write after the reads of a
    // copy another thread just dropped.
    if (_shared.load(std::memory_order_relaxed)) {
        _body = std::make_shared<Body>(*_body);
        _shared.store(false, std::memory_order_relaxed);
    }
    return *_body;
}

void
Graph::reserve(std::size_t ops)
{
    ownBody().ops.reserve(ops);
}

OpId
Graph::add(OpType type, std::string label, CostStructure cost,
           FixedParallelism parallelism, std::vector<OpId> inputs)
{
    Body &body = ownBody();

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

    // Fold this op into the structural signature (see graph.hh).
    std::uint64_t h =
        fold(body.signature, static_cast<std::uint64_t>(type));
    h = foldText(h, op.label);
    h = foldDouble(h, cost.muls);
    h = foldDouble(h, cost.adds);
    h = foldDouble(h, cost.specials);
    h = foldDouble(h, cost.bytesRead);
    h = foldDouble(h, cost.bytesWritten);
    h = fold(h, parallelism.unitsPerLane);
    h = foldDouble(h, parallelism.lanes);
    h = fold(h, op.inputs.size());
    for (OpId in : op.inputs)
        h = fold(h, in);
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

ConsumerLists
consumerLists(const Graph &graph)
{
    ConsumerLists lists;
    lists.offsets.assign(graph.size() + 1, 0);
    for (const Operation &op : graph.ops())
        for (OpId in : op.inputs)
            ++lists.offsets[in + 1];
    for (std::size_t i = 1; i < lists.offsets.size(); ++i)
        lists.offsets[i] += lists.offsets[i - 1];
    lists.ids.resize(lists.offsets.back());
    // Filling in op-id order keeps each list in op-id order.
    std::vector<std::size_t> next(lists.offsets.begin(),
                                  lists.offsets.end() - 1);
    for (const Operation &op : graph.ops())
        for (OpId in : op.inputs)
            lists.ids[next[in]++] = op.id;
    return lists;
}

} // namespace hpim::nn
