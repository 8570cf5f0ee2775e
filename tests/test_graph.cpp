/**
 * @file
 * Unit tests for the training-step DAG.
 */

#include <gtest/gtest.h>

#include "nn/graph.hh"

using namespace hpim::nn;

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

} // namespace

TEST(Graph, AddAssignsDenseIds)
{
    Graph g("test");
    OpId a = g.add(OpType::MatMul, "a", unitCost(), unitPar());
    OpId b = g.add(OpType::Relu, "b", unitCost(), unitPar(), {a});
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(g.size(), 2u);
    EXPECT_EQ(g.op(b).inputs, std::vector<OpId>{a});
}

TEST(Graph, ConsumersAreReverseEdges)
{
    Graph g("test");
    OpId a = g.add(OpType::MatMul, "a", unitCost(), unitPar());
    OpId b = g.add(OpType::Relu, "b", unitCost(), unitPar(), {a});
    OpId c = g.add(OpType::Softmax, "c", unitCost(), unitPar(), {a, b});
    EXPECT_EQ(g.consumers()[a], (std::vector<OpId>{b, c}));
    EXPECT_EQ(g.consumers()[b], std::vector<OpId>{c});
    EXPECT_TRUE(g.consumers()[c].empty());
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
    EXPECT_TRUE(original.consumers()[a].empty());

    Graph fresh("shared");
    fresh.add(OpType::MatMul, "a", unitCost(), unitPar());
    fresh.add(OpType::Relu, "b", unitCost(), unitPar(), {a});
    EXPECT_EQ(copy.signature(), fresh.signature());
    EXPECT_EQ(copy.consumers()[a], std::vector<OpId>{b});

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

TEST(GraphDeath, ForwardReferenceIsFatal)
{
    Graph g("test");
    EXPECT_EXIT(
        g.add(OpType::MatMul, "bad", unitCost(), unitPar(), {5}),
        testing::ExitedWithCode(1), "does not precede");
}

TEST(Graph, TopoOrderIsInsertionOrder)
{
    Graph g("test");
    g.add(OpType::MatMul, "a", unitCost(), unitPar());
    g.add(OpType::Relu, "b", unitCost(), unitPar(), {0});
    auto order = g.topoOrder();
    EXPECT_EQ(order, (std::vector<OpId>{0, 1}));
}

TEST(Graph, ReadyOpsRespectsDependences)
{
    Graph g("test");
    OpId a = g.add(OpType::MatMul, "a", unitCost(), unitPar());
    OpId b = g.add(OpType::MatMul, "b", unitCost(), unitPar());
    OpId c = g.add(OpType::Add, "c", unitCost(), unitPar(), {a, b});

    std::vector<bool> done(3, false);
    auto ready = g.readyOps(done);
    EXPECT_EQ(ready, (std::vector<OpId>{a, b}));

    done[a] = true;
    ready = g.readyOps(done);
    EXPECT_EQ(ready, std::vector<OpId>{b});

    done[b] = true;
    ready = g.readyOps(done);
    EXPECT_EQ(ready, std::vector<OpId>{c});
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

TEST(Graph, CountType)
{
    Graph g("test");
    g.add(OpType::MatMul, "a", unitCost(), unitPar());
    g.add(OpType::Relu, "b", unitCost(), unitPar());
    g.add(OpType::MatMul, "c", unitCost(), unitPar());
    EXPECT_EQ(g.countType(OpType::MatMul), 2u);
    EXPECT_EQ(g.countType(OpType::Relu), 1u);
    EXPECT_EQ(g.countType(OpType::Softmax), 0u);
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

TEST(Graph, FixedAndSpecialWorkSplit)
{
    Graph g("split");
    CostStructure c;
    c.muls = 50;
    c.specials = 7;
    OpId mm = g.add(OpType::MatMul, "mm", c,
                    fixedParallelism(OpType::MatMul, 2, 1.0));
    OpId relu = g.add(OpType::Relu, "r", c,
                      fixedParallelism(OpType::Relu, 1, 1.0));
    EXPECT_DOUBLE_EQ(g.op(mm).fixedWork(), 50.0);
    EXPECT_DOUBLE_EQ(g.op(relu).fixedWork(), 0.0);
    EXPECT_DOUBLE_EQ(g.op(relu).specialWork(), 7.0);
}

TEST(GraphDeath, BadOpIdPanics)
{
    Graph g("empty");
    EXPECT_DEATH(g.op(0), "out of range");
}
