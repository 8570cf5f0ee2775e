#include "nn/graph.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <utility>

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

/**
 * Append @p items to @p array, naming the array @p what if it would
 * pass 2^32 entries, which its 32-bit offsets cannot reach. @return
 * where they start. @p items may view @p array itself: growing moves
 * the array, so they are then copied from their new place.
 */
template <class T>
std::uint32_t
append(std::vector<T> &array, std::span<const T> items, const char *what)
{
    const std::size_t at = array.size();
    fatal_if(items.size() > std::numeric_limits<std::uint32_t>::max() - at,
             "graph ", what, " would pass 2^32");
    const T *const base = array.data();
    const bool inside = std::less_equal<const T *>()(base, items.data())
                        && std::less<const T *>()(items.data(), base + at);
    const std::size_t from =
        inside ? static_cast<std::size_t>(items.data() - base) : 0;
    array.resize(at + items.size());
    std::copy_n(inside ? array.data() + from : items.data(), items.size(),
                array.data() + at);
    return static_cast<std::uint32_t>(at);
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

std::shared_ptr<Graph::Body>
Graph::ownBody()
{
    // Not use_count(): it reads the count without acquiring, so a
    // count of one would not order this write after the reads of a
    // copy another thread just dropped.
    if (!_shared.load(std::memory_order_relaxed))
        return nullptr;
    _shared.store(false, std::memory_order_relaxed);
    return std::exchange(_body, std::make_shared<Body>(*_body));
}

void
Graph::reserve(std::size_t ops, std::size_t label_bytes,
               std::size_t inputs)
{
    ownBody();
    Body &body = *_body;
    body.ops.reserve(ops);
    body.labels.reserve(label_bytes);
    body.inputs.reserve(inputs);
}

OpId
Graph::add(OpType type, std::string_view label, CostStructure cost,
           FixedParallelism parallelism, std::span<const OpId> inputs)
{
    // The body a clone was made from holds what a view of this graph
    // reads, so it must outlive the copies below.
    const std::shared_ptr<Body> source = ownBody();
    Body &body = *_body;

    OpId id = static_cast<OpId>(body.ops.size());
    for (OpId in : inputs) {
        fatal_if(in >= id, "op '", label, "' depends on op ", in,
                 " which does not precede it");
    }

    // Fold this op into the structural signature (see graph.hh) first:
    // growing the arrays below moves what a view of them shows.
    std::uint64_t h =
        fold(body.signature, static_cast<std::uint64_t>(type));
    h = foldText(h, label);
    h = foldDouble(h, cost.muls);
    h = foldDouble(h, cost.adds);
    h = foldDouble(h, cost.specials);
    h = foldDouble(h, cost.bytesRead);
    h = foldDouble(h, cost.bytesWritten);
    h = fold(h, parallelism.unitsPerLane);
    h = foldDouble(h, parallelism.lanes);
    h = fold(h, inputs.size());
    for (OpId in : inputs)
        h = fold(h, in);

    Operation op;
    op.id = id;
    op.type = type;
    op.cost = cost;
    op.parallelism = parallelism;
    op._labelAt = append(body.labels, std::span<const char>(label),
                         "label bytes");
    op._labelSize = static_cast<std::uint32_t>(label.size());
    op._inputsAt = append(body.inputs, inputs, "inputs");
    op._inputCount = static_cast<std::uint32_t>(inputs.size());
    body.ops.push_back(op);
    body.signature = h;
    return id;
}

void
Graph::badId(OpId id) const
{
    panic("op id ", id, " out of range");
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
Graph::criticalPathLength() const
{
    std::vector<std::size_t> depth(size(), 1);
    std::size_t longest = size() == 0 ? 0 : 1;
    for (const Operation &op : ops()) {
        for (OpId in : inputs(op.id))
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
        for (OpId in : graph.inputs(op.id))
            ++lists.offsets[in + 1];
    for (std::size_t i = 1; i < lists.offsets.size(); ++i)
        lists.offsets[i] += lists.offsets[i - 1];
    lists.ids.resize(lists.offsets.back());
    // Filling in op-id order keeps each list in op-id order.
    std::vector<std::size_t> next(lists.offsets.begin(),
                                  lists.offsets.end() - 1);
    for (const Operation &op : graph.ops())
        for (OpId in : graph.inputs(op.id))
            lists.ids[next[in]++] = op.id;
    return lists;
}

} // namespace hpim::nn
