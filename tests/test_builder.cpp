/**
 * @file
 * Unit tests for the training-graph builder on layer chains like the
 * built-in CNNs -- the forward layers plus the auto-generated backward
 * pass and optimizer ops.
 */

#include <gtest/gtest.h>

#include "nn/graph_builder.hh"

using namespace hpim::nn;

TEST(Builder, ConvUpdatesRunningShape)
{
    Builder b("t");
    TensorRef x = b.conv2d(b.input(TensorShape{2, 32, 32, 3}), 3, 16, 2);
    EXPECT_EQ(b.shape(x), (TensorShape{2, 16, 16, 16}));
    x = b.maxPool(x, 2, 2);
    EXPECT_EQ(b.shape(x), (TensorShape{2, 8, 8, 16}));
}

TEST(Builder, ForwardOnlyEmitsNoGradOps)
{
    Builder b("t");
    b.conv2d(b.input(TensorShape{2, 8, 8, 4}), 3, 8, 1);
    Graph g = b.finishForward();
    EXPECT_EQ(g.countType(OpType::Conv2D), 1u);
    EXPECT_EQ(g.countType(OpType::Conv2DBackpropFilter), 0u);
    EXPECT_EQ(g.countType(OpType::ApplyAdam), 0u);
}

TEST(Builder, TrainingStepHasBackwardAndOptimizer)
{
    Builder b("t");
    TensorRef x = b.conv2d(b.input(TensorShape{2, 16, 16, 3}), 3, 8, 1);
    x = b.flatten(b.maxPool(x, 2, 2));
    Graph g = b.trainingStep(b.dense(x, 10, false));

    EXPECT_EQ(g.countType(OpType::Conv2D), 1u);
    EXPECT_EQ(g.countType(OpType::Conv2DBackpropFilter), 1u);
    // First conv layer: no input gradient needed.
    EXPECT_EQ(g.countType(OpType::Conv2DBackpropInput), 0u);
    EXPECT_EQ(g.countType(OpType::MaxPoolGrad), 1u);
    EXPECT_EQ(g.countType(OpType::MatMul), 1u);
    EXPECT_EQ(g.countType(OpType::MatMulGradWeights), 1u);
    EXPECT_EQ(g.countType(OpType::Softmax), 1u);
    EXPECT_EQ(g.countType(OpType::SoftmaxGrad), 1u);
    // conv kernel + conv bias + fc kernel + fc bias.
    EXPECT_EQ(g.countType(OpType::ApplyAdam), 4u);
}

TEST(Builder, TwoConvLayersShareOneInputGrad)
{
    Builder b("t");
    TensorRef x = b.conv2d(b.input(TensorShape{2, 16, 16, 3}), 3, 8, 1);
    x = b.conv2d(x, 3, 8, 1);
    Graph g = b.trainingStep(b.dense(b.flatten(x), 10, false));
    EXPECT_EQ(g.countType(OpType::Conv2DBackpropFilter), 2u);
    // Only the second conv propagates into the first.
    EXPECT_EQ(g.countType(OpType::Conv2DBackpropInput), 1u);
}

TEST(Builder, ReluEmitsReluAndGrad)
{
    Builder b("t");
    TensorRef x = b.conv2d(b.input(TensorShape{2, 8, 8, 3}), 3, 4, 1,
                           /*relu=*/true);
    Graph g = b.trainingStep(b.dense(b.flatten(x), 10, false));
    EXPECT_EQ(g.countType(OpType::Relu), 1u);
    EXPECT_EQ(g.countType(OpType::ReluGrad), 1u);
}

TEST(Builder, DropoutRoundTrips)
{
    Builder b("t");
    TensorRef x = b.conv2d(b.input(TensorShape{2, 8, 8, 3}), 3, 4, 1);
    x = b.dropout(b.dense(b.flatten(x), 16));
    Graph g = b.trainingStep(b.dense(x, 10, false));
    EXPECT_EQ(g.countType(OpType::Dropout), 1u);
    EXPECT_EQ(g.countType(OpType::DropoutGrad), 1u);
}

TEST(Builder, BatchNormContributesParams)
{
    Builder b("t");
    TensorRef x = b.conv2d(b.input(TensorShape{2, 8, 8, 3}), 3, 4, 1);
    x = b.batchNorm(x);
    Graph g = b.trainingStep(b.dense(b.flatten(x), 10, false));
    EXPECT_EQ(g.countType(OpType::BatchNorm), 1u);
    EXPECT_EQ(g.countType(OpType::BatchNormGrad), 1u);
    // conv(k+b) + bn(scale/offset) + fc(k+b) = 5 Adam ops.
    EXPECT_EQ(g.countType(OpType::ApplyAdam), 5u);
}

TEST(Builder, DeconvLowersToConvBackpropInput)
{
    // TensorFlow's conv2d_transpose -> Conv2DBackpropInput, the
    // reason DCGAN's forward pass profiles that op (Table I).
    Builder b("t");
    TensorRef x = b.deconv2d(b.input(TensorShape{2, 8, 8, 16}), 5, 8, 2);
    EXPECT_EQ(b.shape(x), (TensorShape{2, 16, 16, 8}));
    Graph g = b.finishForward();
    EXPECT_EQ(g.countType(OpType::Conv2DBackpropInput), 1u);
}

TEST(Builder, ExtraLossMulsAppear)
{
    Builder b("t");
    TensorRef x = b.conv2d(b.input(TensorShape{2, 8, 8, 3}), 3, 4, 1);
    Graph g = b.trainingStep(b.dense(b.flatten(x), 10, false),
                             Optimizer::Adam, /*extra_loss_muls=*/12);
    EXPECT_GE(g.countType(OpType::Mul), 12u);
}

TEST(Builder, GraphIsAcyclicByConstruction)
{
    Builder b("t");
    TensorRef x = b.conv2d(b.input(TensorShape{2, 16, 16, 3}), 3, 8, 1);
    x = b.conv2d(b.maxPool(x, 2, 2), 3, 16, 1);
    Graph g = b.trainingStep(b.dense(b.flatten(x), 10, false));
    // Every input id precedes its consumer (checked in add()), and
    // readyOps() from nothing-done yields only true sources.
    std::vector<bool> done(g.size(), false);
    auto ready = g.readyOps(done);
    ASSERT_FALSE(ready.empty());
    for (OpId id : ready)
        EXPECT_TRUE(g.op(id).inputs.empty());
}

TEST(Builder, EveryOpReachableFromExecution)
{
    Builder b("t");
    TensorRef x = b.conv2d(b.input(TensorShape{2, 16, 16, 3}), 3, 8, 1);
    Graph g = b.trainingStep(b.dense(b.flatten(x), 10, false));
    // Simulate executing ops as they become ready; everything must
    // complete (no dangling dependences).
    std::vector<bool> done(g.size(), false);
    std::size_t completed = 0;
    while (completed < g.size()) {
        auto ready = g.readyOps(done);
        ASSERT_FALSE(ready.empty()) << "deadlocked graph";
        for (OpId id : ready) {
            done[id] = true;
            ++completed;
        }
    }
    SUCCEED();
}

// ---- Shape-inference edge cases of layer chains (the per-op cases
// are in test_graph_builder.cpp).

TEST(Builder, OddStrideRoundsUp)
{
    Builder b("t");
    TensorRef x = b.conv2d(b.input(TensorShape{2, 13, 13, 3}), 3, 8, 3);
    EXPECT_EQ(b.shape(x), (TensorShape{2, 5, 5, 8}));
    x = b.maxPool(x, 3, 3);
    EXPECT_EQ(b.shape(x), (TensorShape{2, 2, 2, 8}));
}

TEST(Builder, FlattenAfterPoolFeedsFc)
{
    Builder b("t");
    TensorRef x = b.maxPool(b.input(TensorShape{2, 16, 16, 8}), 2, 2);
    x = b.dense(b.flatten(x), 10, false);
    EXPECT_EQ(b.shape(x), (TensorShape{2, 10}));
    Graph g = b.trainingStep(x);
    // The pooled NHWC activation is flattened before its MatMul.
    EXPECT_EQ(g.countType(OpType::Reshape), 1u);
    EXPECT_EQ(g.countType(OpType::MaxPoolGrad), 1u);
}

TEST(Builder, DeconvUpsamplesByItsFactor)
{
    Builder b("t");
    TensorRef x = b.deconv2d(b.input(TensorShape{1, 7, 7, 128}), 5, 64, 4);
    EXPECT_EQ(b.shape(x), (TensorShape{1, 28, 28, 64}));
}

TEST(Builder, DelegatesToTheSameBuilderOpStream)
{
    // The determinism contract: identical layer sequences produce
    // identical op streams, so identical signatures.
    auto build = [] {
        Builder b("net");
        TensorRef x =
            b.conv2d(b.input(TensorShape{2, 16, 16, 3}), 3, 8, 1);
        x = b.flatten(b.maxPool(x, 2, 2));
        return b.trainingStep(b.dense(x, 10, false));
    };
    EXPECT_EQ(build().signature(), build().signature());
}
