/**
 * @file
 * Unit + property tests for the analytic op cost model and the op
 * type traits -- the numbers every scheduling and energy result rests
 * on.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "nn/op_cost.hh"

using namespace hpim::nn;

TEST(OpCost, Conv2dMacCount)
{
    // 1x8x8x4 input, 3x3 kernel, 16 out channels, stride 1:
    // macs = 8*8*16*3*3*4 = 36864.
    TensorShape input{1, 8, 8, 4};
    CostStructure c = conv2dCost(input, 3, 16, 1);
    EXPECT_DOUBLE_EQ(c.muls, 36864.0);
    EXPECT_DOUBLE_EQ(c.adds, 36864.0);
    EXPECT_DOUBLE_EQ(c.specials, 0.0);
    EXPECT_GT(c.bytesRead, input.bytes());
    EXPECT_DOUBLE_EQ(c.bytesWritten, 8.0 * 8 * 16 * 4);
}

TEST(OpCost, Conv2dStrideShrinksOutputWork)
{
    TensorShape input{1, 8, 8, 4};
    CostStructure s1 = conv2dCost(input, 3, 16, 1);
    CostStructure s2 = conv2dCost(input, 3, 16, 2);
    EXPECT_DOUBLE_EQ(s2.muls, s1.muls / 4.0);
}

TEST(OpCost, ConvBackpropsMirrorForwardMacs)
{
    TensorShape input{2, 16, 16, 8};
    CostStructure fwd = conv2dCost(input, 3, 32, 1);
    CostStructure dw = conv2dBackpropFilterCost(input, 3, 32, 1);
    CostStructure dx = conv2dBackpropInputCost(input, 3, 32, 1);
    EXPECT_DOUBLE_EQ(dw.muls, fwd.muls);
    EXPECT_DOUBLE_EQ(dx.muls, fwd.muls);
    // Complex ops carry control work the fixed units cannot run.
    EXPECT_GT(dw.specials, 0.0);
    EXPECT_GT(dx.specials, 0.0);
    // Filter grad reads activations + upstream grad.
    EXPECT_GT(dw.bytesRead, fwd.bytesRead);
    // Input grad writes a dL/dx the size of the input.
    EXPECT_DOUBLE_EQ(dx.bytesWritten, double(input.bytes()));
}

TEST(OpCost, MatMulDimensions)
{
    CostStructure c = matmulCost(32, 512, 1000);
    EXPECT_DOUBLE_EQ(c.muls, 32.0 * 512 * 1000);
    EXPECT_DOUBLE_EQ(c.bytesRead, (32.0 * 512 + 512.0 * 1000) * 4);
    EXPECT_DOUBLE_EQ(c.bytesWritten, 32.0 * 1000 * 4);
}

TEST(OpCost, ElementwiseKinds)
{
    TensorShape shape{128, 64};
    CostStructure mul = elementwiseCost(OpType::Mul, shape);
    EXPECT_DOUBLE_EQ(mul.muls, 8192.0);
    EXPECT_DOUBLE_EQ(mul.adds, 0.0);
    CostStructure add = elementwiseCost(OpType::Add, shape);
    EXPECT_DOUBLE_EQ(add.adds, 8192.0);
    EXPECT_DOUBLE_EQ(add.muls, 0.0);
}

TEST(OpCost, BiasAddGradIsReductionHeavy)
{
    TensorShape act{32, 56, 56, 256};
    CostStructure c = biasAddGradCost(act, 256);
    EXPECT_DOUBLE_EQ(c.adds, double(act.elems()));
    // Writes only the channel vector.
    EXPECT_DOUBLE_EQ(c.bytesWritten, 256.0 * 4);
    // Reads everything: extremely memory intensive (paper Table I).
    EXPECT_DOUBLE_EQ(c.bytesRead, double(act.bytes()));
    EXPECT_LT(c.intensity(), 0.5);
}

TEST(OpCost, ActivationsAreAllSpecial)
{
    TensorShape shape{4, 1000};
    CostStructure relu = activationCost(OpType::Relu, shape);
    EXPECT_DOUBLE_EQ(relu.muls + relu.adds, 0.0);
    EXPECT_DOUBLE_EQ(relu.specials, 4000.0);
    CostStructure tanh = activationCost(OpType::Tanh, shape);
    EXPECT_GT(tanh.specials, relu.specials); // exp-based is pricier
}

TEST(OpCost, PoolingWindowsScaleCompares)
{
    TensorShape input{1, 8, 8, 2};
    CostStructure p2 = poolCost(OpType::MaxPool, input, 2, 2);
    CostStructure p3 = poolCost(OpType::MaxPool, input, 3, 2);
    EXPECT_GT(p3.specials, p2.specials);
    CostStructure avg = poolCost(OpType::AvgPool, input, 2, 2);
    EXPECT_GT(avg.adds, 0.0); // averaging is mul/add-ish
}

TEST(OpCost, ApplyAdamPerParameterWork)
{
    CostStructure c = applyAdamCost(1000);
    EXPECT_DOUBLE_EQ(c.muls, 6000.0);
    EXPECT_DOUBLE_EQ(c.adds, 4000.0);
    EXPECT_DOUBLE_EQ(c.specials, 2000.0);
    // Reads and writes param + both moments.
    EXPECT_DOUBLE_EQ(c.bytesRead, 12000.0);
    EXPECT_DOUBLE_EQ(c.bytesWritten, 12000.0);
}

TEST(OpCost, LstmCellGradDoublesForward)
{
    CostStructure fwd = lstmCellCost(OpType::LstmCell, 20, 650, 650);
    CostStructure bwd =
        lstmCellCost(OpType::LstmCellGrad, 20, 650, 650);
    EXPECT_NEAR(bwd.flops(), 2.0 * fwd.flops(), 1.0);
}

TEST(OpCost, DataMovementHasNoFlops)
{
    CostStructure c = dataMovementCost(4096.0);
    EXPECT_DOUBLE_EQ(c.flops(), 0.0);
    EXPECT_DOUBLE_EQ(c.bytesRead, 4096.0);
    EXPECT_DOUBLE_EQ(c.bytesWritten, 4096.0);
}

TEST(OpCost, AccumulateAndScale)
{
    CostStructure a = matmulCost(2, 3, 4);
    CostStructure b = applyAdamCost(10);
    CostStructure sum = a;
    sum += b;
    EXPECT_DOUBLE_EQ(sum.muls, a.muls + b.muls);
    CostStructure half = sum.scaled(0.5);
    EXPECT_DOUBLE_EQ(half.muls, sum.muls / 2.0);
    EXPECT_DOUBLE_EQ(half.bytesRead, sum.bytesRead / 2.0);
}

TEST(OpCost, IntensityDefinition)
{
    CostStructure c;
    c.muls = 100;
    c.adds = 100;
    c.bytesRead = 50;
    c.bytesWritten = 50;
    EXPECT_DOUBLE_EQ(c.intensity(), 2.0);
    CostStructure empty;
    EXPECT_DOUBLE_EQ(empty.intensity(), 0.0);
}

TEST(OpTraits, OffloadClassOfEveryOpTypeIsPinned)
{
    // Paper Fig. 2's four classes, one row per op type in enum order.
    // Every placement decision reads them.
    using C = OffloadClass;
    struct Row
    {
        OpType type;
        C offloadClass;
        bool fixedPortion;
    };
    const Row rows[] = {
        {OpType::MatMul, C::FixedFunction, true},
        {OpType::Conv2D, C::FixedFunction, true},
        {OpType::Mul, C::FixedFunction, true},
        {OpType::Add, C::FixedFunction, true},
        {OpType::Sub, C::FixedFunction, true},
        {OpType::BiasAdd, C::FixedFunction, true},
        {OpType::Conv2DBackpropFilter, C::Recursive, true},
        {OpType::Conv2DBackpropInput, C::Recursive, true},
        {OpType::MatMulGradWeights, C::Recursive, true},
        {OpType::MatMulGradInputs, C::Recursive, true},
        {OpType::BiasAddGrad, C::Recursive, true},
        {OpType::LstmCell, C::Recursive, true},
        {OpType::LstmCellGrad, C::Recursive, true},
        {OpType::BatchNorm, C::Recursive, true},
        {OpType::BatchNormGrad, C::Recursive, true},
        {OpType::Relu, C::ProgrammableOnly, false},
        {OpType::ReluGrad, C::ProgrammableOnly, false},
        {OpType::MaxPool, C::ProgrammableOnly, false},
        {OpType::MaxPoolGrad, C::ProgrammableOnly, false},
        {OpType::AvgPool, C::ProgrammableOnly, false},
        {OpType::AvgPoolGrad, C::ProgrammableOnly, false},
        {OpType::Softmax, C::ProgrammableOnly, false},
        {OpType::SoftmaxGrad, C::ProgrammableOnly, false},
        {OpType::ApplyAdam, C::ProgrammableOnly, false},
        {OpType::Dropout, C::ProgrammableOnly, false},
        {OpType::DropoutGrad, C::ProgrammableOnly, false},
        {OpType::Tanh, C::ProgrammableOnly, false},
        {OpType::Sigmoid, C::ProgrammableOnly, false},
        {OpType::EmbeddingLookup, C::ProgrammableOnly, false},
        {OpType::EmbeddingGrad, C::ProgrammableOnly, false},
        {OpType::NceLoss, C::ProgrammableOnly, false},
        {OpType::Slice, C::DataMovement, false},
        {OpType::Concat, C::DataMovement, false},
        {OpType::Reshape, C::DataMovement, false},
        {OpType::Transpose, C::DataMovement, false},
        {OpType::Pad, C::DataMovement, false},
        {OpType::ApplySgd, C::ProgrammableOnly, false},
    };
    ASSERT_EQ(std::size(rows), numOpTypes);
    for (std::size_t i = 0; i < numOpTypes; ++i) {
        const Row &row = rows[i];
        SCOPED_TRACE(opName(row.type));
        EXPECT_EQ(static_cast<std::size_t>(row.type), i);
        EXPECT_EQ(opTraits(row.type).offloadClass, row.offloadClass);
        EXPECT_EQ(hasFixedPortion(row.type), row.fixedPortion);
    }
}

TEST(FixedParallelismModel, PaperElevenByElevenExample)
{
    // Paper SectionIII-C: an 11x11 conv lane occupies 121 multipliers
    // + 120 adders = 241 units.
    FixedParallelism p =
        fixedParallelism(OpType::Conv2D, 11 * 11, 1000.0);
    EXPECT_EQ(p.unitsPerLane, 241u);
    EXPECT_DOUBLE_EQ(p.lanes, 1000.0);
}

TEST(FixedParallelismModel, ElementwiseUsesSingleUnitLanes)
{
    FixedParallelism p = fixedParallelism(OpType::Mul, 1, 64.0);
    EXPECT_EQ(p.unitsPerLane, 1u);
    EXPECT_DOUBLE_EQ(p.maxUnits(), 64.0);
}

TEST(FixedParallelismModel, NonOffloadableOpsGetZero)
{
    FixedParallelism p = fixedParallelism(OpType::Relu, 9, 100.0);
    EXPECT_EQ(p.unitsPerLane, 0u);
    EXPECT_DOUBLE_EQ(p.maxUnits(), 0.0);
}

// Property: conv cost grows linearly in batch for every kernel size.
class ConvBatchLinearity : public testing::TestWithParam<std::int64_t>
{};

TEST_P(ConvBatchLinearity, MacsLinearInBatch)
{
    std::int64_t k = GetParam();
    TensorShape one{1, 16, 16, 8};
    TensorShape four{4, 16, 16, 8};
    CostStructure c1 = conv2dCost(one, k, 8, 1);
    CostStructure c4 = conv2dCost(four, k, 8, 1);
    EXPECT_DOUBLE_EQ(c4.muls, 4.0 * c1.muls);
    EXPECT_DOUBLE_EQ(c4.bytesWritten, 4.0 * c1.bytesWritten);
}

INSTANTIATE_TEST_SUITE_P(Kernels, ConvBatchLinearity,
                         testing::Values(1, 3, 5, 7, 11));
