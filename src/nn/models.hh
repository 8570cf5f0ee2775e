/**
 * @file
 * Training-step graphs of the paper's seven evaluation workloads
 * (SectionV-C), with the paper's default batch sizes.
 */

#ifndef HPIM_NN_MODELS_HH
#define HPIM_NN_MODELS_HH

#include <string>
#include <vector>

#include "nn/graph.hh"

namespace hpim::nn {

/** The evaluated workloads. */
enum class ModelId
{
    Vgg19,
    AlexNet,
    Dcgan,
    ResNet50,
    InceptionV3,
    Lstm,
    Word2vec,
};

/** @return the paper's default batch size for @p model (SectionV-C). */
int defaultBatchSize(ModelId model);

/** @return the human-readable model name. */
std::string modelName(ModelId model);

/**
 * One training step of @p model; batch <= 0 uses the default.
 *
 * A graph is a pure function of (model, batch), so while
 * sim::MemoCache is enabled the build is memoized under "nn.graph",
 * keyed on the model and the resolved batch: every later call returns
 * a copy that shares the first build's body. While the cache is
 * disabled it builds afresh.
 */
Graph buildModel(ModelId model, int batch = 0);

/** VGG-19 on ImageNet-sized inputs (batch 32). */
Graph buildVgg19(int batch = 32);

/** AlexNet on ImageNet-sized inputs (batch 32). */
Graph buildAlexNet(int batch = 32);

/** DCGAN generator+discriminator step on MNIST (batch 64). */
Graph buildDcgan(int batch = 64);

/** ResNet-50 (batch 128). */
Graph buildResNet50(int batch = 128);

/** Inception-v3 (batch 32). */
Graph buildInceptionV3(int batch = 32);

/** 2-layer LSTM language model on PTB (batch 20). */
Graph buildLstm(int batch = 20);

/** Word2vec skip-gram with NCE loss (batch 128). */
Graph buildWord2vec(int batch = 128);

/** The five CNN models of the main evaluation (Figs. 8-15, 17). */
std::vector<ModelId> cnnModels();

/** All seven workloads. */
std::vector<ModelId> allModels();

} // namespace hpim::nn

#endif // HPIM_NN_MODELS_HH
