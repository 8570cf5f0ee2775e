/**
 * @file
 * Unit tests for the training-step DAG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph_queries.hh"
#include "nn/graph.hh"

using namespace hpim::nn;
using hpim::test::inputsOf;

namespace {

CostStructure
unitCost()
{
    CostStructure c;
    c.muls = 100;
    c.adds = 100;
    c.bytesRead = 64;
    return c;
}

FixedParallelism
unitPar()
{
    return fixedParallelism(OpType::MatMul, 4, 10.0);
}

/** @return the next double above @p x: a one-ulp change. */
double
nextUp(double x)
{
    return std::nextafter(x, std::numeric_limits<double>::infinity());
}

} // namespace

TEST(Graph, AddAssignsDenseIds)
{
    Graph g("test");
    OpId a = g.add(OpType::MatMul, "a", unitCost(), unitPar());
    OpId b = g.add(OpType::Relu, "b", unitCost(), unitPar(), {a});
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(g.size(), 2u);
    EXPECT_EQ(inputsOf(g, b), std::vector<OpId>{a});
    EXPECT_EQ(g.label(a), "a");
    EXPECT_EQ(g.label(b), "b");
    EXPECT_TRUE(g.inputs(a).empty());
}

TEST(Graph, ConsumersAreReverseEdges)
{
    Graph g("test");
    OpId a = g.add(OpType::MatMul, "a", unitCost(), unitPar());
    OpId b = g.add(OpType::Relu, "b", unitCost(), unitPar(), {a});
    OpId c = g.add(OpType::Softmax, "c", unitCost(), unitPar(), {a, b});
    OpId d = g.add(OpType::Add, "d", unitCost(), unitPar(), {c, a, c});
    const ConsumerLists lists = consumerLists(g);
    auto consumers = [&lists](OpId id) {
        const auto of = lists.of(id);
        return std::vector<OpId>(of.begin(), of.end());
    };
    // In op-id order, once per input edge.
    EXPECT_EQ(consumers(a), (std::vector<OpId>{b, c, d}));
    EXPECT_EQ(consumers(b), std::vector<OpId>{c});
    EXPECT_EQ(consumers(c), (std::vector<OpId>{d, d}));
    EXPECT_TRUE(consumers(d).empty());
    EXPECT_EQ(lists.offsets.size(), g.size() + 1);
}

TEST(Graph, CopiesShareOneBodyUntilAdd)
{
    Graph original("shared");
    OpId a = original.add(OpType::MatMul, "a", unitCost(), unitPar());
    const std::uint64_t signature = original.signature();

    Graph copy = original;
    EXPECT_EQ(&copy.ops(), &original.ops());

    OpId b = copy.add(OpType::Relu, "b", unitCost(), unitPar(), {a});
    EXPECT_NE(&copy.ops(), &original.ops());
    EXPECT_EQ(original.size(), 1u);
    EXPECT_EQ(original.signature(), signature);
    EXPECT_TRUE(consumerLists(original).of(a).empty());

    Graph fresh("shared");
    fresh.add(OpType::MatMul, "a", unitCost(), unitPar());
    fresh.add(OpType::Relu, "b", unitCost(), unitPar(), {a});
    EXPECT_EQ(copy.signature(), fresh.signature());
    const ConsumerLists copy_consumers = consumerLists(copy);
    ASSERT_EQ(copy_consumers.of(a).size(), 1u);
    EXPECT_EQ(copy_consumers.of(a)[0], b);

    // add() on the source of a copy leaves the copy as it was.
    const Graph snapshot = original;
    original.add(OpType::Softmax, "c", unitCost(), unitPar(), {a});
    EXPECT_EQ(snapshot.size(), 1u);
    EXPECT_EQ(snapshot.signature(), signature);

    // Moving copies, so the moved-from graph still answers queries.
    Graph moved = std::move(copy);
    EXPECT_EQ(copy.size(), 2u);
    EXPECT_EQ(copy.signature(), moved.signature());
    EXPECT_EQ(copy.name(), "shared");
}

TEST(Graph, ViewsSurviveCopyOnWrite)
{
    Graph original("views");
    const OpId a = original.add(OpType::MatMul, "a-label-longer-than-15",
                                unitCost(), unitPar());
    const OpId b =
        original.add(OpType::Relu, "b", unitCost(), unitPar(), {a, a});
    const std::string_view label = original.label(a);
    const std::span<const OpId> inputs = original.inputs(b);

    // Enough ops that a body written in place would reallocate.
    Graph copy = original;
    for (int i = 0; i < 64; ++i)
        copy.add(OpType::Add, "grown", unitCost(), unitPar(), {a, b});
    EXPECT_EQ(label, "a-label-longer-than-15");
    EXPECT_EQ(std::vector<OpId>(inputs.begin(), inputs.end()),
              (std::vector<OpId>{a, a}));
    EXPECT_EQ(label.data(), original.label(a).data());
    EXPECT_EQ(copy.label(a), label);

    // add() on the original clones too; the copy keeps the old body.
    const Graph snapshot = original;
    const std::string_view snapshot_label = snapshot.label(a);
    original.add(OpType::Softmax, "c", unitCost(), unitPar(), {b});
    EXPECT_EQ(snapshot_label, "a-label-longer-than-15");
    EXPECT_EQ(inputsOf(snapshot, b), (std::vector<OpId>{a, a}));
    EXPECT_EQ(original.label(2), "c");
}

TEST(Graph, AddCopiesViewsOfItsOwnGraph)
{
    // add() is given a label and inputs viewed from its own graph while
    // the arrays they view grow, and, on every other add(), while the
    // body they view is cloned and dropped.
    const std::string label = "first-label-past-the-inline-buffer";
    Graph viewed("self");
    Graph plain("self");
    for (Graph *g : {&viewed, &plain}) {
        g->add(OpType::MatMul, label, unitCost(), unitPar());
        g->add(OpType::Relu, "b", unitCost(), unitPar(), {0});
    }
    for (OpId i = 2; i < 40; ++i) {
        if (i % 2 == 0) {
            // Left shared, with viewed its only holder.
            const Graph dropped = viewed;
        }
        viewed.add(OpType::Add, viewed.label(0), unitCost(), unitPar(),
                   viewed.inputs(1));
        plain.add(OpType::Add, label, unitCost(), unitPar(), {0});
        ASSERT_EQ(viewed.label(i), label);
        ASSERT_EQ(inputsOf(viewed, i), std::vector<OpId>{0});
    }
    EXPECT_EQ(viewed.signature(), plain.signature());
}

TEST(Graph, SignatureSeesEveryField)
{
    // The last op of a three-op graph; the fold reads each field.
    struct Op
    {
        OpType type = OpType::MatMul;
        std::string label = "ab";
        CostStructure cost = unitCost();
        FixedParallelism parallelism = unitPar();
        std::vector<OpId> inputs = {0, 1};
    };
    auto signatureOf = [](const Op &last) {
        Graph g("fields");
        g.add(OpType::MatMul, "a", unitCost(), unitPar());
        g.add(OpType::Relu, "b", unitCost(), unitPar(), {0});
        g.add(last.type, last.label, last.cost, last.parallelism,
              last.inputs);
        return g.signature();
    };
    const std::uint64_t base = signatureOf(Op{});
    EXPECT_EQ(signatureOf(Op{}), base);

    const std::vector<std::pair<const char *, void (*)(Op &)>> edits = {
        {"type", [](Op &o) { o.type = OpType::Relu; }},
        {"label byte", [](Op &o) { o.label = "ac"; }},
        {"label length",
         [](Op &o) { o.label = std::string("ab\0", 3); }},
        {"muls", [](Op &o) { o.cost.muls = nextUp(o.cost.muls); }},
        {"adds", [](Op &o) { o.cost.adds = nextUp(o.cost.adds); }},
        {"specials",
         [](Op &o) { o.cost.specials = nextUp(o.cost.specials); }},
        {"bytes_read",
         [](Op &o) { o.cost.bytesRead = nextUp(o.cost.bytesRead); }},
        {"bytes_written",
         [](Op &o) { o.cost.bytesWritten = nextUp(o.cost.bytesWritten); }},
        {"units_per_lane", [](Op &o) { ++o.parallelism.unitsPerLane; }},
        {"lanes",
         [](Op &o) { o.parallelism.lanes = nextUp(o.parallelism.lanes); }},
        {"one input", [](Op &o) { o.inputs = {0, 0}; }},
        {"input count", [](Op &o) { o.inputs = {0, 1, 1}; }},
    };
    for (const auto &[field, edit] : edits) {
        Op op;
        edit(op);
        EXPECT_NE(signatureOf(op), base) << field;
    }
}

TEST(GraphDeath, ForwardReferenceIsFatal)
{
    Graph g("test");
    EXPECT_EXIT(
        g.add(OpType::MatMul, "bad", unitCost(), unitPar(), {5}),
        testing::ExitedWithCode(1), "does not precede");
}

TEST(Graph, TotalCostSums)
{
    Graph g("test");
    g.add(OpType::MatMul, "a", unitCost(), unitPar());
    g.add(OpType::MatMul, "b", unitCost(), unitPar());
    CostStructure total = g.totalCost();
    EXPECT_DOUBLE_EQ(total.muls, 200.0);
    EXPECT_DOUBLE_EQ(total.bytesRead, 128.0);
}

TEST(Graph, CriticalPathOfChainEqualsLength)
{
    Graph g("chain");
    OpId prev = g.add(OpType::MatMul, "0", unitCost(), unitPar());
    for (int i = 1; i < 10; ++i)
        prev = g.add(OpType::MatMul, std::to_string(i), unitCost(),
                     unitPar(), {prev});
    EXPECT_EQ(g.criticalPathLength(), 10u);
}

TEST(Graph, CriticalPathOfParallelOpsIsOne)
{
    Graph g("wide");
    for (int i = 0; i < 5; ++i)
        g.add(OpType::MatMul, std::to_string(i), unitCost(), unitPar());
    EXPECT_EQ(g.criticalPathLength(), 1u);
}

TEST(GraphDeath, BadOpIdPanics)
{
    Graph g("empty");
    EXPECT_DEATH(g.op(0), "out of range");
    EXPECT_DEATH(g.label(0), "out of range");
    EXPECT_DEATH(g.inputs(0), "out of range");
}
