/**
 * @file
 * Tests of the seven workload models against the paper's structural
 * facts: batch sizes (SectionV-C), op invocation counts (Table I),
 * and relative model sizes.
 */

#include <gtest/gtest.h>

#include "graph_queries.hh"
#include "nn/models.hh"

using namespace hpim::nn;
using hpim::test::countType;
using hpim::test::readyOps;

TEST(Models, PaperBatchSizes)
{
    // SectionV-C: 32/32/64/128/32/20/128.
    EXPECT_EQ(defaultBatchSize(ModelId::Vgg19), 32);
    EXPECT_EQ(defaultBatchSize(ModelId::AlexNet), 32);
    EXPECT_EQ(defaultBatchSize(ModelId::Dcgan), 64);
    EXPECT_EQ(defaultBatchSize(ModelId::ResNet50), 128);
    EXPECT_EQ(defaultBatchSize(ModelId::InceptionV3), 32);
    EXPECT_EQ(defaultBatchSize(ModelId::Lstm), 20);
    EXPECT_EQ(defaultBatchSize(ModelId::Word2vec), 128);
}

TEST(Models, NamesRoundTrip)
{
    EXPECT_EQ(modelName(ModelId::Vgg19), "VGG-19");
    EXPECT_EQ(modelName(ModelId::ResNet50), "ResNet-50");
    EXPECT_EQ(cnnModels().size(), 5u);
    EXPECT_EQ(allModels().size(), 7u);
}

TEST(Models, Vgg19MatchesTableOneInvocations)
{
    Graph g = buildVgg19();
    // Table I (VGG-19): Conv2DBackpropFilter x16,
    // Conv2DBackpropInput x15, Conv2D x16.
    EXPECT_EQ(countType(g, OpType::Conv2D), 16u);
    EXPECT_EQ(countType(g, OpType::Conv2DBackpropFilter), 16u);
    EXPECT_EQ(countType(g, OpType::Conv2DBackpropInput), 15u);
    // 16 conv + 3 fc bias grads = 19.
    EXPECT_EQ(countType(g, OpType::BiasAddGrad), 19u);
    EXPECT_EQ(countType(g, OpType::MaxPool), 5u);
    EXPECT_EQ(countType(g, OpType::MaxPoolGrad), 5u);
    // Relu on every conv and the two hidden fc layers.
    EXPECT_EQ(countType(g, OpType::Relu), 18u);
}

TEST(Models, AlexNetMatchesTableOneInvocations)
{
    Graph g = buildAlexNet();
    // Table I (AlexNet): 5 convs, filter grads x5, input grads x4,
    // MatMul x3 forward (+ grads).
    EXPECT_EQ(countType(g, OpType::Conv2D), 5u);
    EXPECT_EQ(countType(g, OpType::Conv2DBackpropFilter), 5u);
    EXPECT_EQ(countType(g, OpType::Conv2DBackpropInput), 4u);
    EXPECT_EQ(countType(g, OpType::MatMul), 3u);
    EXPECT_EQ(countType(g, OpType::MatMulGradWeights), 3u);
}

TEST(Models, DcganContainsForwardDeconvAndManyMuls)
{
    Graph g = buildDcgan();
    // Generator deconvs lower to Conv2DBackpropInput in the forward
    // pass; the GAN loss sprays Mul ops (Table I: Mul x84).
    EXPECT_GE(countType(g, OpType::Conv2DBackpropInput), 3u);
    EXPECT_GE(countType(g, OpType::Mul), 60u);
    EXPECT_GE(countType(g, OpType::Slice), 2u);
}

TEST(Models, RelativeComputeOrdering)
{
    double vgg = buildVgg19().totalCost().flops();
    double alex = buildAlexNet().totalCost().flops();
    double dcgan = buildDcgan().totalCost().flops();
    double resnet = buildResNet50().totalCost().flops();
    // VGG-19 is the heaviest per-image CNN; DCGAN is tiny.
    EXPECT_GT(vgg, alex);
    EXPECT_GT(alex, dcgan);
    EXPECT_GT(resnet, alex); // batch 128 makes ResNet heavy in total
}

TEST(Models, BatchScalesCost)
{
    double b32 = buildVgg19(32).totalCost().flops();
    double b8 = buildVgg19(8).totalCost().flops();
    EXPECT_NEAR(b32 / b8, 4.0, 0.1);
}

TEST(Models, LstmHasRecurrentStructure)
{
    Graph g = buildLstm();
    // 2 layers x 35 timesteps.
    EXPECT_EQ(countType(g, OpType::LstmCell), 70u);
    EXPECT_EQ(countType(g, OpType::LstmCellGrad), 70u);
    EXPECT_GE(countType(g, OpType::EmbeddingLookup), 1u);
    // BPTT forces a long critical path.
    EXPECT_GT(g.criticalPathLength(), 140u);
}

TEST(Models, Word2vecIsSmallAndEmbeddingHeavy)
{
    Graph g = buildWord2vec();
    EXPECT_LT(g.size(), 16u);
    EXPECT_EQ(countType(g, OpType::EmbeddingLookup), 2u);
    EXPECT_EQ(countType(g, OpType::NceLoss), 1u);
    EXPECT_EQ(countType(g, OpType::EmbeddingGrad), 2u);
}

TEST(Models, BuildModelDispatchesAllIds)
{
    for (ModelId id : allModels()) {
        Graph g = buildModel(id);
        EXPECT_GT(g.size(), 0u) << modelName(id);
        EXPECT_GT(g.totalCost().flops() + g.totalCost().specials, 0.0);
    }
}

// Property: every model graph is executable to completion (acyclic,
// no dangling dependences).
class ModelGraphSweep : public testing::TestWithParam<ModelId>
{};

TEST_P(ModelGraphSweep, GraphDrainsCompletely)
{
    Graph g = buildModel(GetParam());
    std::vector<bool> done(g.size(), false);
    std::size_t completed = 0;
    while (completed < g.size()) {
        auto ready = readyOps(g, done);
        ASSERT_FALSE(ready.empty())
            << modelName(GetParam()) << " deadlocked at "
            << completed << "/" << g.size();
        for (auto id : ready) {
            done[id] = true;
            ++completed;
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelGraphSweep,
                         testing::ValuesIn(allModels()),
                         [](const auto &info) {
                             std::string name =
                                 modelName(info.param);
                             for (char &ch : name) {
                                 if (!isalnum(
                                         static_cast<unsigned char>(
                                             ch)))
                                     ch = '_';
                             }
                             return name;
                         });
