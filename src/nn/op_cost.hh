/**
 * @file
 * Analytic cost structures for NN training operations.
 *
 * A CostStructure separates an op's dynamic work into multiplies, adds
 * and "special" operations (compares, exp, RNG, gather...), plus DRAM
 * traffic in bytes. This is the information the paper's profiler
 * extracts with TensorBoard + VTune, and everything the runtime
 * scheduler needs.
 */

#ifndef HPIM_NN_OP_COST_HH
#define HPIM_NN_OP_COST_HH

#include <cstdint>

#include "nn/op_type.hh"
#include "nn/tensor_shape.hh"

namespace hpim::nn {

/** Dynamic work and traffic of one operation instance. */
struct CostStructure
{
    double muls = 0.0;     ///< FP32 multiplies
    double adds = 0.0;     ///< FP32 adds
    double specials = 0.0; ///< non-mul/add scalar operations
    double bytesRead = 0.0;
    double bytesWritten = 0.0;

    /** Total floating-point work (mul + add). */
    double flops() const { return muls + adds; }
    /** Total DRAM traffic. */
    double bytes() const { return bytesRead + bytesWritten; }
    /** Arithmetic intensity in flops/byte (0 when no traffic). */
    double
    intensity() const
    {
        return bytes() > 0.0 ? flops() / bytes() : 0.0;
    }

    CostStructure &operator+=(const CostStructure &o);
    /** @return this cost scaled by @p f (all fields). */
    CostStructure scaled(double f) const;
};

/**
 * Natural reduction-tree width of an op on the fixed-function PIM pool.
 *
 * The paper's example (SectionIII-C): one 11x11 convolution occupies
 * 121 multipliers + 120 adders = 241 units. We generalize: a reduction
 * over K elements uses K multipliers and K-1 adders (2K - 1 units).
 */
struct FixedParallelism
{
    /** Units one "lane" of the op occupies (2K-1 for a K-reduction). */
    std::uint32_t unitsPerLane = 0;
    /** Independent lanes available (output elements), caps scaling. */
    double lanes = 0.0;

    /** Max units the op can exploit at once (capped by lane count). */
    double
    maxUnits() const
    {
        return static_cast<double>(unitsPerLane) * lanes;
    }
};

/** Cost of conv2d fprop: input NHWC, filter KKCinCout, stride s. */
CostStructure conv2dCost(const TensorShape &input, std::int64_t k,
                         std::int64_t c_out, std::int64_t stride);

/** Cost of conv2d filter gradient (same loop nest + accumulation). */
CostStructure conv2dBackpropFilterCost(const TensorShape &input,
                                       std::int64_t k, std::int64_t c_out,
                                       std::int64_t stride);

/** Cost of conv2d input gradient. */
CostStructure conv2dBackpropInputCost(const TensorShape &input,
                                      std::int64_t k, std::int64_t c_out,
                                      std::int64_t stride);

/** Cost of [m,k] x [k,n] matmul. */
CostStructure matmulCost(std::int64_t m, std::int64_t k, std::int64_t n);

/** Cost of an elementwise binary op over @p shape. */
CostStructure elementwiseCost(OpType type, const TensorShape &shape);

/** Cost of bias add over activations @p shape (+channels vector). */
CostStructure biasAddCost(const TensorShape &shape, std::int64_t channels);

/** Cost of bias gradient (reduction over all but channels). */
CostStructure biasAddGradCost(const TensorShape &shape,
                              std::int64_t channels);

/** Cost of an activation function (Relu/Tanh/Sigmoid/grads). */
CostStructure activationCost(OpType type, const TensorShape &shape);

/** Cost of max/avg pooling with window k, stride s. */
CostStructure poolCost(OpType type, const TensorShape &input,
                       std::int64_t k, std::int64_t stride);

/** Cost of pooling with a non-square window kh x kw, strides sh/sw.
 *  For a square window this matches poolCost exactly. */
CostStructure poolCost2d(OpType type, const TensorShape &input,
                         std::int64_t kh, std::int64_t kw,
                         std::int64_t sh, std::int64_t sw);

/** Cost of softmax (+grad) over [batch, classes]. */
CostStructure softmaxCost(OpType type, std::int64_t batch,
                          std::int64_t classes);

/** Cost of the Adam update over @p params parameters. */
CostStructure applyAdamCost(std::int64_t params);

/** Cost of the plain SGD update (p -= lr * g) over @p params. */
CostStructure applySgdCost(std::int64_t params);

/** Cost of dropout (+grad) over @p shape. */
CostStructure dropoutCost(OpType type, const TensorShape &shape);

/** Cost of one fused LSTM cell step (fwd or bwd). */
CostStructure lstmCellCost(OpType type, std::int64_t batch,
                           std::int64_t input_dim, std::int64_t hidden);

/** Cost of batch norm (+grad) over activations. */
CostStructure batchNormCost(OpType type, const TensorShape &shape);

/** Cost of embedding lookup/grad: batch rows of width dim. */
CostStructure embeddingCost(OpType type, std::int64_t rows,
                            std::int64_t dim);

/** Cost of NCE loss over batch x (1 + negatives) samples of dim. */
CostStructure nceLossCost(std::int64_t batch, std::int64_t negatives,
                          std::int64_t dim);

/** Cost of a pure data-movement op over @p bytes. */
CostStructure dataMovementCost(double bytes);

/**
 * Natural fixed-function parallelism for an op instance.
 *
 * @param type op type
 * @param reduction length of the inner reduction (K*K*Cin for conv,
 *        inner dim for matmul, 1 for elementwise)
 * @param lanes number of independent output lanes
 */
FixedParallelism fixedParallelism(OpType type, std::int64_t reduction,
                                  double lanes);

} // namespace hpim::nn

#endif // HPIM_NN_OP_COST_HH
