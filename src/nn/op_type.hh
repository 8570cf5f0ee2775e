/**
 * @file
 * The operation taxonomy for NN training workloads.
 *
 * Mirrors the TensorFlow-level operations the paper profiles (Table I)
 * and the four-class taxonomy of Fig. 2. Each type carries traits that
 * drive offload decisions:
 *  - pure multiply/add ops can run entirely on fixed-function PIMs;
 *  - complex ops (Conv2DBackpropFilter, ...) have an extractable
 *    multiply/add portion that recursive PIM kernels offload;
 *  - special ops (Relu, MaxPool, ApplyAdam, ...) need the programmable
 *    PIM or the CPU.
 */

#ifndef HPIM_NN_OP_TYPE_HH
#define HPIM_NN_OP_TYPE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hpim::nn {

/** TensorFlow-flavoured operation types. */
enum class OpType : std::uint8_t
{
    // Pure multiply/add (fully fixed-function offloadable).
    MatMul,
    Conv2D,
    Mul,
    Add,
    Sub,
    BiasAdd,
    // Complex compute: multiply/add core + control logic.
    Conv2DBackpropFilter,
    Conv2DBackpropInput,
    MatMulGradWeights,
    MatMulGradInputs,
    BiasAddGrad,
    LstmCell,
    LstmCellGrad,
    BatchNorm,
    BatchNormGrad,
    // Special / conditional ops (programmable PIM or CPU).
    Relu,
    ReluGrad,
    MaxPool,
    MaxPoolGrad,
    AvgPool,
    AvgPoolGrad,
    Softmax,
    SoftmaxGrad,
    ApplyAdam,
    Dropout,
    DropoutGrad,
    Tanh,
    Sigmoid,
    EmbeddingLookup,
    EmbeddingGrad,
    NceLoss,
    // Data movement / bookkeeping.
    Slice,
    Concat,
    Reshape,
    Transpose,
    Pad,
    // Plain stochastic-gradient-descent update (GradPIM-style
    // optimizer-heavy workloads). Appended at the end: signature()
    // hashes the numeric enum value, so inserting mid-enum would
    // silently re-key every memoized graph.
    ApplySgd,

    NumOpTypes
};

/** Number of distinct op types. */
constexpr std::size_t numOpTypes =
    static_cast<std::size_t>(OpType::NumOpTypes);

/** Device-offload capability class of an op type. */
enum class OffloadClass : std::uint8_t
{
    /** Entirely multiply/add: runs on fixed-function PIMs alone. */
    FixedFunction,
    /** Mul/add core + control: programmable PIM w/ recursive fixed
     *  kernels (paper Fig. 6). */
    Recursive,
    /** Conditional/special math: programmable PIM or CPU only. */
    ProgrammableOnly,
    /** Pure data movement: cheapest near memory, no FP compute. */
    DataMovement,
};

/** Static traits of an op type. */
struct OpTraits
{
    std::string_view name;
    OffloadClass offloadClass;
    /**
     * Fraction of the op's dynamic work that is NOT plain multiply/add
     * (comparisons, exp/log, RNG, ...). For Recursive ops this part
     * stays on the programmable PIM; for FixedFunction ops it is 0.
     */
    double specialFraction;
};

/** @return the traits for @p type. */
const OpTraits &opTraits(OpType type);

/** @return the OpType whose wire/profiler name is @p name, or
 *  nullopt for an unknown name (the GraphIo loader's reverse map). */
std::optional<OpType> opTypeFromName(std::string_view name);

/** @return the TensorFlow-style op name. */
inline std::string
opName(OpType type)
{
    return std::string(opTraits(type).name);
}

/** @return true if the op has an extractable fixed-function portion. */
inline bool
hasFixedPortion(OpType type)
{
    auto cls = opTraits(type).offloadClass;
    return cls == OffloadClass::FixedFunction
           || cls == OffloadClass::Recursive;
}

} // namespace hpim::nn

#endif // HPIM_NN_OP_TYPE_HH
