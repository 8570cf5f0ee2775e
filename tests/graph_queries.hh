/**
 * @file
 * Graph queries that only tests ask, written over nn::Graph's public
 * ops() and inputs().
 */

#ifndef HPIM_TESTS_GRAPH_QUERIES_HH
#define HPIM_TESTS_GRAPH_QUERIES_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "nn/graph.hh"

namespace hpim::test {

/** @return the number of ops of @p type in @p graph. */
inline std::size_t
countType(const nn::Graph &graph, nn::OpType type)
{
    return static_cast<std::size_t>(std::count_if(
        graph.ops().begin(), graph.ops().end(),
        [type](const nn::Operation &op) { return op.type == type; }));
}

/** @return the inputs of op @p id, as a vector EXPECT_EQ can print. */
inline std::vector<nn::OpId>
inputsOf(const nn::Graph &graph, nn::OpId id)
{
    const auto inputs = graph.inputs(id);
    return {inputs.begin(), inputs.end()};
}

/** @return the ops not @p done whose producers all are, in id order. */
inline std::vector<nn::OpId>
readyOps(const nn::Graph &graph, const std::vector<bool> &done)
{
    std::vector<nn::OpId> ready;
    for (const nn::Operation &op : graph.ops()) {
        const auto inputs = graph.inputs(op.id);
        if (!done.at(op.id)
            && std::all_of(inputs.begin(), inputs.end(),
                           [&done](nn::OpId in) { return done[in]; }))
            ready.push_back(op.id);
    }
    return ready;
}

} // namespace hpim::test

#endif // HPIM_TESTS_GRAPH_QUERIES_HH
