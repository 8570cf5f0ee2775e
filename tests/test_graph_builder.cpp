/**
 * @file
 * Unit tests for the op-by-op nn::Builder (docs/GRAPHS.md): per-op
 * shape inference and its edge cases, pinned op streams, the
 * pluggable optimizer, gradient accumulation at fan-out, and the
 * death tests for invalid shapes and foreign/dangling refs.
 */

#include <gtest/gtest.h>

#include <string>

#include "nn/graph_builder.hh"

using namespace hpim::nn;

namespace {

bool
hasLabel(const Graph &g, const std::string &label)
{
    for (const Operation &op : g.ops())
        if (op.label == label)
            return true;
    return false;
}

} // namespace

// ------------------------------------------------------ shape inference

TEST(GraphBuilder, ConvOddStrideRoundsUp)
{
    Builder b("t");
    // 13x13 at stride 3 -> ceil(13/3) = 5.
    auto x = b.conv2d(b.input(TensorShape{2, 13, 13, 3}), 3, 8, 3);
    EXPECT_EQ(b.shape(x), (TensorShape{2, 5, 5, 8}));
}

TEST(GraphBuilder, NonSquarePoolingInfersPerAxis)
{
    Builder b("t");
    // LSTM/W2V-style wide activations pool asymmetrically.
    auto x = b.maxPool(b.input(TensorShape{2, 24, 36, 4}),
                       /*kh=*/3, /*kw=*/2, /*sh=*/3, /*sw=*/2);
    EXPECT_EQ(b.shape(x), (TensorShape{2, 8, 18, 4}));
    Builder b2("t");
    auto y = b2.avgPool(b2.input(TensorShape{2, 24, 36, 4}), 2, 6, 2, 6);
    EXPECT_EQ(b2.shape(y), (TensorShape{2, 12, 6, 4}));
}

TEST(GraphBuilder, FlattenAfterPoolCollapsesSpatialDims)
{
    Builder b("t");
    auto x = b.input(TensorShape{4, 16, 16, 8});
    x = b.maxPool(x, 2, 2);
    x = b.flatten(x);
    EXPECT_EQ(b.shape(x), (TensorShape{4, 8 * 8 * 8}));
}

TEST(GraphBuilder, DeconvUpsamples)
{
    Builder b("t");
    auto x = b.deconv2d(b.input(TensorShape{2, 7, 7, 64}), 5, 32, 2);
    EXPECT_EQ(b.shape(x), (TensorShape{2, 14, 14, 32}));
}

TEST(GraphBuilder, MatmulAndTransposeShapes)
{
    Builder b("t");
    auto a = b.input(TensorShape{8, 32});
    auto t = b.transpose(a);
    EXPECT_EQ(b.shape(t), (TensorShape{32, 8}));
    auto s = b.matmul(a, t);
    EXPECT_EQ(b.shape(s), (TensorShape{8, 8}));
    auto m = b.matmul(b.softmax(s), a);
    EXPECT_EQ(b.shape(m), (TensorShape{8, 32}));
}

// --------------------------------------------------- pinned op streams
//
// Recorded from the layer-level builder the built-in CNNs used to be
// written on; they also pin the costs of square pooling windows.

TEST(GraphBuilder, MatchesCnnBuilderOpStream)
{
    Builder b("net");
    auto x = b.input(TensorShape{2, 16, 16, 3});
    x = b.conv2d(x, 3, 8, 1);
    x = b.maxPool(x, 2, 2);
    x = b.flatten(x);
    x = b.dense(x, 10, false);
    Graph got = b.trainingStep(x, Optimizer::Adam);

    ASSERT_EQ(got.size(), 20u);
    EXPECT_EQ(got.signature(), 9579795484832527866ull);
}

TEST(GraphBuilder, ForwardOnlyMatchesCnnBuilder)
{
    Builder b("net");
    auto x = b.input(TensorShape{1, 28, 28, 1});
    x = b.conv2d(x, 5, 6, 1);
    x = b.avgPool(x, 2, 2);
    x = b.flatten(x);
    x = b.dense(x, 10, false);
    Graph got = b.finishForward();

    ASSERT_EQ(got.size(), 7u);
    EXPECT_EQ(got.signature(), 13739996587087741844ull);
    EXPECT_EQ(got.countType(OpType::ApplyAdam), 0u);
    EXPECT_EQ(got.countType(OpType::SoftmaxGrad), 0u);
}

// ------------------------------------------------- training-step mode

TEST(GraphBuilder, SgdOptimizerSwapsApplyOps)
{
    Builder b("t");
    auto x = b.dense(b.input(TensorShape{4, 32}), 10, false);
    Graph g = b.trainingStep(x, Optimizer::Sgd);
    EXPECT_EQ(g.countType(OpType::ApplyAdam), 0u);
    // dense kernel + bias.
    EXPECT_EQ(g.countType(OpType::ApplySgd), 2u);
}

TEST(GraphBuilder, ResidualFanOutAccumulatesGradients)
{
    Builder b("t");
    auto in = b.input(TensorShape{4, 32});
    auto h = b.dense(in, 32, false);  // consumed twice below
    auto m = b.dense(h, 32, false);
    auto r = b.add(m, h);
    auto logits = b.dense(r, 10, false);
    Graph g = b.trainingStep(logits, Optimizer::Adam);

    // h's two gradient contributions (through m and through the
    // residual Add) merge in one accumulation op.
    EXPECT_TRUE(hasLabel(g, "fc1/AddGrad_0"));
    // Both matmul operand gradients exist for the interior layers.
    EXPECT_GE(g.countType(OpType::MatMulGradInputs), 2u);
}

TEST(GraphBuilder, MatmulBackpropsBothOperands)
{
    Builder b("t");
    auto a = b.input(TensorShape{8, 16});
    auto q = b.dense(a, 16, false);
    auto k = b.dense(a, 16, false);
    auto s = b.matmul(q, b.transpose(k));
    auto logits = b.dense(b.matmul(b.softmax(s), q), 10, false);
    Graph g = b.trainingStep(logits, Optimizer::Adam);

    EXPECT_TRUE(hasLabel(g, "matmul_2/MatMul_grad_a"));
    EXPECT_TRUE(hasLabel(g, "matmul_2/MatMul_grad_b"));
    EXPECT_EQ(g.countType(OpType::SoftmaxGrad), 2u); // attn + loss
}

TEST(GraphBuilder, LayerNormEmitsGradAndOptimizer)
{
    Builder b("t");
    auto x = b.layerNorm(b.dense(b.input(TensorShape{4, 32}), 32,
                                 false));
    Graph g = b.trainingStep(b.dense(x, 10, false), Optimizer::Adam);
    EXPECT_TRUE(hasLabel(g, "ln_1/LayerNorm"));
    EXPECT_TRUE(hasLabel(g, "ln_1/LayerNormGrad"));
    // dense x2 (kernel+bias each) + layer-norm scale/offset.
    EXPECT_EQ(g.countType(OpType::ApplyAdam), 5u);
}

// ------------------------------------------------------- death tests

TEST(GraphBuilderDeath, DanglingRefIsFatal)
{
    Builder b("t");
    TensorRef dangling;
    EXPECT_DEATH(b.relu(dangling), "invalid");
}

TEST(GraphBuilderDeath, ForeignRefIsFatal)
{
    Builder b1("a"), b2("b");
    auto x = b1.input(TensorShape{2, 8});
    EXPECT_DEATH(b2.relu(x), "different Builder");
}

TEST(GraphBuilderDeath, DenseOnRank4IsFatal)
{
    Builder b("t");
    auto x = b.input(TensorShape{2, 8, 8, 3});
    EXPECT_DEATH(b.dense(x, 10), "rank-2");
}

TEST(GraphBuilderDeath, MatmulDimMismatchIsFatal)
{
    Builder b("t");
    auto a = b.input(TensorShape{4, 8});
    auto c = b.input(TensorShape{4, 8}); // inner dims 8 vs 4 clash
    EXPECT_DEATH(b.matmul(a, c), "matmul");
}

TEST(GraphBuilderDeath, AddShapeMismatchIsFatal)
{
    Builder b("t");
    auto a = b.input(TensorShape{4, 8});
    auto c = b.input(TensorShape{4, 9});
    EXPECT_DEATH(b.add(a, c), "same-shaped");
}

TEST(GraphBuilderDeath, ConvOnFlatTensorIsFatal)
{
    Builder b("t");
    auto x = b.input(TensorShape{4, 64});
    EXPECT_DEATH(b.conv2d(x, 3, 8, 1), "NHWC");
}

TEST(GraphBuilderDeath, TrainingStepOnRawInputIsFatal)
{
    Builder b("t");
    auto x = b.input(TensorShape{4, 10});
    b.relu(x); // tape is non-empty; the input check itself must fire
    EXPECT_DEATH(b.trainingStep(x), "graph input");
}

TEST(GraphBuilderDeath, UseAfterFinishIsFatal)
{
    Builder b("t");
    auto x = b.dense(b.input(TensorShape{4, 16}), 10, false);
    Graph g = b.trainingStep(x);
    EXPECT_DEATH(b.input(TensorShape{2, 2}), "finished");
}

TEST(GraphBuilderDeath, EmptyModelIsFatal)
{
    Builder b("t");
    auto x = b.input(TensorShape{4, 10});
    EXPECT_DEATH(b.trainingStep(x), "empty model");
}
