#include "nn/op_cost.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace hpim::nn {

CostStructure &
CostStructure::operator+=(const CostStructure &o)
{
    muls += o.muls;
    adds += o.adds;
    specials += o.specials;
    bytesRead += o.bytesRead;
    bytesWritten += o.bytesWritten;
    return *this;
}

CostStructure
CostStructure::scaled(double f) const
{
    CostStructure c = *this;
    c.muls *= f;
    c.adds *= f;
    c.specials *= f;
    c.bytesRead *= f;
    c.bytesWritten *= f;
    return c;
}

namespace {

/** Output spatial size for a same-padded, strided convolution. */
std::int64_t
outDim(std::int64_t in, std::int64_t stride)
{
    return (in + stride - 1) / stride;
}

struct ConvDims
{
    std::int64_t n, h, w, c_in, h_out, w_out;
};

ConvDims
convDims(const TensorShape &input, std::int64_t stride)
{
    fatal_if(input.rank() != 4, "conv input must be NHWC, got rank ",
             input.rank());
    ConvDims d{};
    d.n = input.dim(0);
    d.h = input.dim(1);
    d.w = input.dim(2);
    d.c_in = input.dim(3);
    d.h_out = outDim(d.h, stride);
    d.w_out = outDim(d.w, stride);
    return d;
}

} // namespace

CostStructure
conv2dCost(const TensorShape &input, std::int64_t k, std::int64_t c_out,
           std::int64_t stride)
{
    ConvDims d = convDims(input, stride);
    double macs = static_cast<double>(d.n) * d.h_out * d.w_out
                  * static_cast<double>(c_out) * k * k * d.c_in;
    CostStructure c;
    c.muls = macs;
    c.adds = macs; // accumulations ~= multiplies
    c.specials = 0.0;
    double in_bytes = static_cast<double>(input.bytes());
    double w_bytes = static_cast<double>(k * k * d.c_in * c_out)
                     * elementBytes;
    double out_bytes = static_cast<double>(d.n * d.h_out * d.w_out * c_out)
                       * elementBytes;
    c.bytesRead = in_bytes + w_bytes;
    c.bytesWritten = out_bytes;
    return c;
}

CostStructure
conv2dBackpropFilterCost(const TensorShape &input, std::int64_t k,
                         std::int64_t c_out, std::int64_t stride)
{
    // Same MAC volume as fprop, plus cross-batch accumulation logic
    // and index arithmetic (the "phase 1/2" work of paper Fig. 6).
    CostStructure c = conv2dCost(input, k, c_out, stride);
    ConvDims d = convDims(input, stride);
    double grad_bytes = static_cast<double>(d.n * d.h_out * d.w_out * c_out)
                        * elementBytes;
    c.bytesRead += grad_bytes;         // reads dL/dy as well
    c.specials = c.muls * opTraits(OpType::Conv2DBackpropFilter)
                              .specialFraction;
    return c;
}

CostStructure
conv2dBackpropInputCost(const TensorShape &input, std::int64_t k,
                        std::int64_t c_out, std::int64_t stride)
{
    CostStructure c = conv2dCost(input, k, c_out, stride);
    c.bytesWritten = static_cast<double>(input.bytes()); // writes dL/dx
    c.specials = c.muls * opTraits(OpType::Conv2DBackpropInput)
                              .specialFraction;
    return c;
}

CostStructure
matmulCost(std::int64_t m, std::int64_t k, std::int64_t n)
{
    CostStructure c;
    double macs = static_cast<double>(m) * k * n;
    c.muls = macs;
    c.adds = macs;
    c.bytesRead = static_cast<double>(m * k + k * n) * elementBytes;
    c.bytesWritten = static_cast<double>(m * n) * elementBytes;
    return c;
}

CostStructure
elementwiseCost(OpType type, const TensorShape &shape)
{
    CostStructure c;
    double n = static_cast<double>(shape.elems());
    switch (type) {
      case OpType::Mul:
        c.muls = n;
        break;
      case OpType::Add:
      case OpType::Sub:
        c.adds = n;
        break;
      default:
        panic("elementwiseCost: not an elementwise type: ", opName(type));
    }
    c.bytesRead = 2.0 * n * elementBytes;
    c.bytesWritten = n * elementBytes;
    return c;
}

CostStructure
biasAddCost(const TensorShape &shape, std::int64_t channels)
{
    CostStructure c;
    double n = static_cast<double>(shape.elems());
    c.adds = n;
    c.bytesRead = n * elementBytes
                  + static_cast<double>(channels) * elementBytes;
    c.bytesWritten = n * elementBytes;
    return c;
}

CostStructure
biasAddGradCost(const TensorShape &shape, std::int64_t channels)
{
    // Reduce the gradient over every non-channel dimension. This is
    // add-heavy and extremely memory intensive (paper Table I shows
    // BiasAddGrad as a top memory op).
    CostStructure c;
    double n = static_cast<double>(shape.elems());
    c.adds = n;
    c.specials = n * opTraits(OpType::BiasAddGrad).specialFraction;
    c.bytesRead = n * elementBytes;
    c.bytesWritten = static_cast<double>(channels) * elementBytes;
    return c;
}

CostStructure
activationCost(OpType type, const TensorShape &shape)
{
    CostStructure c;
    double n = static_cast<double>(shape.elems());
    switch (type) {
      case OpType::Relu:
      case OpType::ReluGrad:
        c.specials = n; // compare + select
        break;
      case OpType::Tanh:
      case OpType::Sigmoid:
        c.specials = 4.0 * n; // exp-based
        break;
      default:
        panic("activationCost: not an activation: ", opName(type));
    }
    c.bytesRead = n * elementBytes
                  * (type == OpType::ReluGrad ? 2.0 : 1.0);
    c.bytesWritten = n * elementBytes;
    return c;
}

CostStructure
poolCost2d(OpType type, const TensorShape &input, std::int64_t kh,
           std::int64_t kw, std::int64_t sh, std::int64_t sw)
{
    fatal_if(input.rank() != 4, "pool input must be NHWC, got rank ",
             input.rank());
    double out = static_cast<double>(input.dim(0))
                 * outDim(input.dim(1), sh) * outDim(input.dim(2), sw)
                 * input.dim(3);
    double window = static_cast<double>(kh * kw);
    CostStructure c;
    switch (type) {
      case OpType::MaxPool:
        c.specials = out * window; // compares
        break;
      case OpType::MaxPoolGrad:
        c.specials = out * (window + 1.0); // argmax replay + scatter
        break;
      case OpType::AvgPool:
        c.adds = out * window;
        c.specials = out; // divide
        break;
      case OpType::AvgPoolGrad:
        c.adds = out * window;
        c.specials = out;
        break;
      default:
        panic("poolCost2d: not a pooling op: ", opName(type));
    }
    c.bytesRead = static_cast<double>(input.bytes());
    c.bytesWritten = out * elementBytes;
    return c;
}

CostStructure
softmaxCost(OpType type, std::int64_t batch, std::int64_t classes)
{
    CostStructure c;
    double n = static_cast<double>(batch * classes);
    if (type == OpType::Softmax) {
        c.specials = 3.0 * n; // exp + max + normalize
        c.adds = n;
    } else {
        c.specials = n;
        c.muls = n;
        c.adds = n;
    }
    c.bytesRead = n * elementBytes;
    c.bytesWritten = n * elementBytes;
    return c;
}

CostStructure
applyAdamCost(std::int64_t params)
{
    // m/v moment updates, bias correction, sqrt, divide per parameter.
    CostStructure c;
    double n = static_cast<double>(params);
    c.muls = 6.0 * n;
    c.adds = 4.0 * n;
    c.specials = 2.0 * n; // sqrt + divide
    c.bytesRead = 3.0 * n * elementBytes;  // param + m + v
    c.bytesWritten = 3.0 * n * elementBytes;
    return c;
}

CostStructure
applySgdCost(std::int64_t params)
{
    // One fused multiply-add per parameter; reads param + gradient,
    // writes the param back. No moment state, so the memory footprint
    // is a third of Adam's -- the contrast the GradPIM-style
    // optimizer-heavy mixes are about.
    CostStructure c;
    double n = static_cast<double>(params);
    c.muls = n;
    c.adds = n;
    c.specials = 0.2 * n; // learning-rate schedule + bounds checks
    c.bytesRead = 2.0 * n * elementBytes; // param + grad
    c.bytesWritten = n * elementBytes;
    return c;
}

CostStructure
dropoutCost(OpType type, const TensorShape &shape)
{
    CostStructure c;
    double n = static_cast<double>(shape.elems());
    c.specials = (type == OpType::Dropout ? 2.0 : 1.0) * n; // RNG+mask
    c.muls = n;
    c.bytesRead = n * elementBytes;
    c.bytesWritten = n * elementBytes;
    return c;
}

CostStructure
lstmCellCost(OpType type, std::int64_t batch, std::int64_t input_dim,
             std::int64_t hidden)
{
    // Four gates: [batch, in+hidden] x [in+hidden, 4*hidden] matmul,
    // plus elementwise gate math (sigmoid/tanh specials).
    CostStructure c =
        matmulCost(batch, input_dim + hidden, 4 * hidden);
    double gate_elems = static_cast<double>(batch * hidden) * 4.0;
    c.specials += 5.0 * gate_elems;
    c.muls += 3.0 * static_cast<double>(batch * hidden);
    c.adds += 2.0 * static_cast<double>(batch * hidden);
    if (type == OpType::LstmCellGrad) {
        c = c.scaled(2.0); // backward ~2x forward work
    }
    return c;
}

CostStructure
batchNormCost(OpType type, const TensorShape &shape)
{
    CostStructure c;
    double n = static_cast<double>(shape.elems());
    c.adds = 2.0 * n;  // mean/var reductions
    c.muls = 2.0 * n;  // scale
    c.specials = n * opTraits(type).specialFraction;
    c.bytesRead = n * elementBytes;
    c.bytesWritten = n * elementBytes;
    if (type == OpType::BatchNormGrad)
        c = c.scaled(1.5);
    return c;
}

CostStructure
embeddingCost(OpType type, std::int64_t rows, std::int64_t dim)
{
    CostStructure c;
    double n = static_cast<double>(rows * dim);
    c.specials = static_cast<double>(rows); // index math
    if (type == OpType::EmbeddingGrad)
        c.adds = n; // scatter-add
    c.bytesRead = n * elementBytes;
    c.bytesWritten = n * elementBytes;
    return c;
}

CostStructure
nceLossCost(std::int64_t batch, std::int64_t negatives, std::int64_t dim)
{
    CostStructure c;
    double pairs = static_cast<double>(batch) * (1.0 + negatives);
    c.muls = pairs * dim; // dot products
    c.adds = pairs * dim;
    c.specials = pairs * 4.0; // sigmoid + log
    c.bytesRead = pairs * dim * elementBytes;
    c.bytesWritten = pairs * elementBytes;
    return c;
}

CostStructure
dataMovementCost(double bytes)
{
    CostStructure c;
    c.specials = bytes / elementBytes; // address generation per element
    c.bytesRead = bytes;
    c.bytesWritten = bytes;
    return c;
}

FixedParallelism
fixedParallelism(OpType type, std::int64_t reduction, double lanes)
{
    FixedParallelism p;
    if (!hasFixedPortion(type)) {
        p.unitsPerLane = 0;
        p.lanes = 0.0;
        return p;
    }
    std::int64_t r = std::max<std::int64_t>(reduction, 1);
    // A K-long reduction tree: K multipliers + (K-1) adders.
    // Elementwise ops (r == 1) use one unit per lane.
    p.unitsPerLane = static_cast<std::uint32_t>(
        std::min<std::int64_t>(2 * r - 1, 1 << 20));
    p.lanes = std::max(lanes, 1.0);
    return p;
}

} // namespace hpim::nn
