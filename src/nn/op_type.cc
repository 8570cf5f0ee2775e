#include "nn/op_type.hh"

#include <array>

#include "sim/logging.hh"

namespace hpim::nn {

namespace {

constexpr std::array<OpTraits, numOpTypes> kTraits = {{
    // name,                     class,                          special
    {"MatMul",               OffloadClass::FixedFunction,    0.00},
    {"Conv2D",               OffloadClass::FixedFunction,    0.00},
    {"Mul",                  OffloadClass::FixedFunction,    0.00},
    {"Add",                  OffloadClass::FixedFunction,    0.00},
    {"Sub",                  OffloadClass::FixedFunction,    0.00},
    {"BiasAdd",              OffloadClass::FixedFunction,    0.00},
    // The special fraction of Recursive ops is the *control* work
    // (phases 1/2 of paper Fig. 6: index setup, accumulation control)
    // that stays on the programmable device; the bulk mul/add core is
    // extracted into recursive fixed-function kernels.
    {"Conv2DBackpropFilter", OffloadClass::Recursive,        0.010},
    {"Conv2DBackpropInput",  OffloadClass::Recursive,        0.008},
    {"MatMulGradWeights",    OffloadClass::Recursive,        0.010},
    {"MatMulGradInputs",     OffloadClass::Recursive,        0.010},
    {"BiasAddGrad",          OffloadClass::Recursive,        0.020},
    {"LSTMCell",             OffloadClass::Recursive,        0.080},
    {"LSTMCellGrad",         OffloadClass::Recursive,        0.100},
    {"BatchNorm",            OffloadClass::Recursive,        0.100},
    {"BatchNormGrad",        OffloadClass::Recursive,        0.120},
    {"Relu",                 OffloadClass::ProgrammableOnly, 1.00},
    {"ReluGrad",             OffloadClass::ProgrammableOnly, 1.00},
    {"MaxPool",              OffloadClass::ProgrammableOnly, 1.00},
    {"MaxPoolGrad",          OffloadClass::ProgrammableOnly, 1.00},
    {"AvgPool",              OffloadClass::ProgrammableOnly, 0.50},
    {"AvgPoolGrad",          OffloadClass::ProgrammableOnly, 0.50},
    {"Softmax",              OffloadClass::ProgrammableOnly, 0.80},
    {"SoftmaxGrad",          OffloadClass::ProgrammableOnly, 0.60},
    {"ApplyAdam",            OffloadClass::ProgrammableOnly, 0.55},
    {"Dropout",              OffloadClass::ProgrammableOnly, 0.90},
    {"DropoutGrad",          OffloadClass::ProgrammableOnly, 0.80},
    {"Tanh",                 OffloadClass::ProgrammableOnly, 1.00},
    {"Sigmoid",              OffloadClass::ProgrammableOnly, 1.00},
    {"EmbeddingLookup",      OffloadClass::ProgrammableOnly, 1.00},
    {"EmbeddingGrad",        OffloadClass::ProgrammableOnly, 0.80},
    {"NceLoss",              OffloadClass::ProgrammableOnly, 0.70},
    {"Slice",                OffloadClass::DataMovement,     1.00},
    {"Concat",               OffloadClass::DataMovement,     1.00},
    {"Reshape",              OffloadClass::DataMovement,     1.00},
    {"Transpose",            OffloadClass::DataMovement,     1.00},
    {"Pad",                  OffloadClass::DataMovement,     1.00},
    {"ApplySGD",             OffloadClass::ProgrammableOnly, 0.10},
}};

} // namespace

const OpTraits &
opTraits(OpType type)
{
    auto idx = static_cast<std::size_t>(type);
    panic_if(idx >= numOpTypes, "invalid op type ", idx);
    return kTraits[idx];
}

std::optional<OpType>
opTypeFromName(std::string_view name)
{
    // string_view == compares lengths first: no strlen per entry.
    for (std::size_t i = 0; i < numOpTypes; ++i) {
        if (name == kTraits[i].name)
            return static_cast<OpType>(i);
    }
    return std::nullopt;
}

} // namespace hpim::nn
