/**
 * @file
 * Unit tests for graph summaries and Graphviz export.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "nn/models.hh"
#include "nn/summary.hh"

using namespace hpim::nn;

TEST(Summary, AggregatesMatchGraphTotals)
{
    Graph graph = buildAlexNet();
    GraphSummary summary = summarize(graph);
    EXPECT_EQ(summary.ops, graph.size());
    EXPECT_EQ(summary.criticalPath, graph.criticalPathLength());
    EXPECT_NEAR(summary.totalGflops,
                graph.totalCost().flops() / 1e9, 1e-6);
    std::size_t invocations = 0;
    double pct = 0.0;
    for (const auto &row : summary.rows) {
        invocations += row.invocations;
        pct += row.flopsPct;
    }
    EXPECT_EQ(invocations, graph.size());
    EXPECT_NEAR(pct, 100.0, 1e-6);
}

TEST(Summary, RowsSortedByGflopsDescending)
{
    GraphSummary summary = summarize(buildVgg19());
    for (std::size_t i = 1; i < summary.rows.size(); ++i)
        EXPECT_GE(summary.rows[i - 1].gflops, summary.rows[i].gflops);
    // The heaviest type in VGG-19 training is a conv op.
    auto top = summary.rows[0].type;
    EXPECT_TRUE(top == OpType::Conv2D
                || top == OpType::Conv2DBackpropFilter
                || top == OpType::Conv2DBackpropInput);
}

TEST(Summary, PrintMentionsTopTypes)
{
    GraphSummary summary = summarize(buildAlexNet());
    std::ostringstream os;
    summary.print(os);
    EXPECT_NE(os.str().find("AlexNet"), std::string::npos);
    EXPECT_NE(os.str().find("Conv2DBackpropFilter"),
              std::string::npos);
}

TEST(Dot, WellFormedDocument)
{
    Graph graph = buildDcgan();
    std::ostringstream os;
    exportDot(graph, os);
    std::string dot = os.str();
    EXPECT_EQ(dot.rfind("digraph", 0), 0u);
    EXPECT_EQ(dot.back(), '\n');
    EXPECT_NE(dot.find("}\n"), std::string::npos);
    // One node line per op.
    std::size_t nodes = 0;
    for (OpId id = 0; id < graph.size(); ++id) {
        std::string node = "n";
        node += std::to_string(id);
        node += " [label=";
        if (dot.find(node) != std::string::npos)
            ++nodes;
    }
    EXPECT_EQ(nodes, graph.size());
}

TEST(Dot, EdgesMatchDependences)
{
    Graph graph("g");
    auto a = graph.add(OpType::MatMul, "a", matmulCost(2, 2, 2),
                       fixedParallelism(OpType::MatMul, 2, 4.0));
    auto b = graph.add(OpType::Relu, "b",
                       activationCost(OpType::Relu,
                                      TensorShape{2, 2}),
                       fixedParallelism(OpType::Relu, 1, 0.0), {a});
    (void)b;
    std::ostringstream os;
    exportDot(graph, os);
    EXPECT_NE(os.str().find("n0 -> n1;"), std::string::npos);
}

TEST(Dot, EscapesQuotesInLabels)
{
    Graph graph("quoted\"name");
    graph.add(OpType::Relu, "op\"label",
              activationCost(OpType::Relu, TensorShape{2}),
              fixedParallelism(OpType::Relu, 1, 0.0));
    std::ostringstream os;
    exportDot(graph, os);
    EXPECT_NE(os.str().find("\\\""), std::string::npos);
}
