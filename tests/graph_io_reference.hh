/**
 * @file
 * The graph loader as it was before nn::loadGraph read documents in
 * one pass: json::parse() builds the node array, then a walk checks
 * and converts every field. It is the differential oracle of the graph
 * fuzzer: for every input, nn::loadGraph must throw the same
 * GraphParseError (what(), line, field) or build a graph with the same
 * saved bytes and signature.
 */

#ifndef HPIM_TESTS_GRAPH_IO_REFERENCE_HH
#define HPIM_TESTS_GRAPH_IO_REFERENCE_HH

#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "harness/json.hh"
#include "nn/graph_io.hh"

namespace hpim::nn::reference {

using harness::json::Value;

/** The fields of one serialized op, in emission order. */
enum OpField : std::size_t {
    Type, Label, Muls, Adds, Specials, BytesRead, BytesWritten,
    UnitsPerLane, Lanes, Inputs, OpFieldCount
};

constexpr std::string_view kOpFields[OpFieldCount] = {
    "type",       "label",         "muls",           "adds",
    "specials",   "bytes_read",    "bytes_written",  "units_per_lane",
    "lanes",      "inputs",
};

enum RootField : std::size_t { SchemaVersion, Name, Ops, RootFieldCount };

constexpr std::string_view kRootFields[RootFieldCount] = {
    "schema_version", "name", "ops",
};

/** The op index fieldPath() takes for a root field. */
constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

/**
 * The path naming field @p name of op @p op ("ops[3].lanes"), or of the
 * root. Built only when throwing, so a valid document allocates no
 * path strings.
 */
inline std::string
fieldPath(std::size_t op, std::string_view name)
{
    if (op == kRoot)
        return std::string(name);
    return "ops[" + std::to_string(op) + "]." + std::string(name);
}

/**
 * Point slots[k] at the entry named names[k], in one pass. Unknown and
 * duplicate keys are rejected in the order a pairwise scan finds them:
 * the earliest entry that is unknown or repeated later wins, and a
 * duplicate is reported at its first repeat.
 */
template <std::size_t N>
void
collectFields(const Value &object, const std::string_view (&names)[N],
              const Value *(&slots)[N], std::size_t op)
{
    std::size_t first[N] = {};
    bool repeated[N] = {};
    std::size_t bad_rank = kRoot;
    bool bad_unknown = false;
    std::string_view bad_key;
    const Value *bad_value = nullptr;
    std::size_t pos = 0;
    for (const auto &[key, value] : object.members()) {
        // Saved documents list the fields in this order.
        std::size_t k = pos < N && key == names[pos] ? pos : 0;
        while (k < N && key != names[k])
            ++k;
        if (k == N) {
            if (pos < bad_rank) {
                bad_rank = pos;
                bad_unknown = true;
                bad_key = key;
                bad_value = &value;
            }
        } else if (!slots[k]) {
            slots[k] = &value;
            first[k] = pos;
        } else if (!repeated[k]) {
            repeated[k] = true;
            if (first[k] < bad_rank) {
                bad_rank = first[k];
                bad_unknown = false;
                bad_key = key;
                bad_value = &value;
            }
        }
        ++pos;
    }
    if (bad_value)
        throw GraphParseError(bad_unknown ? "unknown field"
                                          : "duplicate field",
                              bad_value->line(), fieldPath(op, bad_key));
}

inline const Value &
requireField(const Value *field, const Value &object, std::size_t op,
             std::string_view name)
{
    if (!field)
        throw GraphParseError("missing field", object.line(),
                              fieldPath(op, name));
    return *field;
}

inline double
parseCost(const Value &object, const Value *const (&fields)[OpFieldCount],
          std::size_t op, OpField slot)
{
    const std::string_view name = kOpFields[slot];
    const Value &field = requireField(fields[slot], object, op, name);
    if (!field.isNumber())
        throw GraphParseError("expected a number", field.line(),
                              fieldPath(op, name));
    double value;
    try {
        value = field.asDouble();
    } catch (const harness::json::Error &) {
        throw GraphParseError("malformed number '"
                                  + std::string(field.numberText())
                                  + "'",
                              field.line(), fieldPath(op, name));
    }
    if (!std::isfinite(value))
        throw GraphParseError("expected a finite number", field.line(),
                              fieldPath(op, name));
    if (value < 0.0)
        throw GraphParseError("expected a non-negative number",
                              field.line(), fieldPath(op, name));
    return value;
}

/** Validate op @p index and append it to @p graph. */
inline void
addOp(Graph &graph, const Value &node, std::size_t index)
{
    if (!node.isObject())
        throw GraphParseError("expected an object", node.line(),
                              "ops[" + std::to_string(index) + "]");
    const Value *fields[OpFieldCount] = {};
    collectFields(node, kOpFields, fields, index);
    auto path = [index](OpField slot) {
        return fieldPath(index, kOpFields[slot]);
    };
    auto require = [&](OpField slot) -> const Value & {
        return requireField(fields[slot], node, index, kOpFields[slot]);
    };

    const Value &type = require(Type);
    if (!type.isString())
        throw GraphParseError("expected a string", type.line(),
                              path(Type));
    auto resolved = opTypeFromName(type.asString());
    if (!resolved)
        throw GraphParseError("unknown op type '"
                                  + std::string(type.asString()) + "'",
                              type.line(), path(Type));

    const Value &label = require(Label);
    if (!label.isString())
        throw GraphParseError("expected a string", label.line(),
                              path(Label));
    if (label.asString().empty())
        throw GraphParseError("expected a non-empty label", label.line(),
                              path(Label));

    CostStructure cost;
    cost.muls = parseCost(node, fields, index, Muls);
    cost.adds = parseCost(node, fields, index, Adds);
    cost.specials = parseCost(node, fields, index, Specials);
    cost.bytesRead = parseCost(node, fields, index, BytesRead);
    cost.bytesWritten = parseCost(node, fields, index, BytesWritten);

    const Value &units = require(UnitsPerLane);
    if (!units.isNumber())
        throw GraphParseError("expected a number", units.line(),
                              path(UnitsPerLane));
    std::uint64_t units_value;
    try {
        units_value = units.asUInt64();
    } catch (const harness::json::Error &) {
        throw GraphParseError("expected a non-negative integer",
                              units.line(), path(UnitsPerLane));
    }
    if (units_value > std::numeric_limits<std::uint32_t>::max())
        throw GraphParseError("value out of 32-bit range", units.line(),
                              path(UnitsPerLane));
    FixedParallelism parallelism;
    parallelism.unitsPerLane = static_cast<std::uint32_t>(units_value);
    parallelism.lanes = parseCost(node, fields, index, Lanes);

    const Value &inputs = require(Inputs);
    if (!inputs.isArray())
        throw GraphParseError("expected an array", inputs.line(),
                              path(Inputs));
    std::vector<OpId> deps;
    deps.reserve(inputs.size());
    for (const Value &dep : inputs.elements()) {
        if (!dep.isNumber())
            throw GraphParseError("expected an op index", dep.line(),
                                  path(Inputs));
        std::uint64_t dep_value;
        try {
            dep_value = dep.asUInt64();
        } catch (const harness::json::Error &) {
            throw GraphParseError("expected a non-negative op index",
                                  dep.line(), path(Inputs));
        }
        if (dep_value >= index)
            throw GraphParseError(
                "input " + std::to_string(dep_value)
                    + " does not precede op "
                    + std::to_string(index)
                    + " (ops must be topologically ordered)",
                dep.line(), path(Inputs));
        deps.push_back(static_cast<OpId>(dep_value));
    }
    graph.add(*resolved, label.asString(), cost, parallelism, deps);
}

/** The loader as it walked the tree of json::parse(). */
inline Graph
loadGraph(const std::string &text)
{
    Value root;
    try {
        root = harness::json::parse(text);
    } catch (const harness::json::Error &err) {
        throw GraphParseError(err.what(), err.line);
    }

    if (!root.isObject())
        throw GraphParseError("expected a graph object", root.line());
    const Value *fields[RootFieldCount] = {};
    collectFields(root, kRootFields, fields, kRoot);

    const Value &version = requireField(fields[SchemaVersion], root,
                                        kRoot, "schema_version");
    std::int64_t version_value;
    try {
        version_value = version.asInt64();
    } catch (const harness::json::Error &) {
        throw GraphParseError("expected an integer", version.line(),
                              "schema_version");
    }
    if (version_value != graphSchemaVersion)
        throw GraphParseError(
            "unsupported schema version "
                + std::to_string(version_value) + " (expected "
                + std::to_string(graphSchemaVersion) + ")",
            version.line(), "schema_version");

    const Value &name = requireField(fields[Name], root, kRoot, "name");
    if (!name.isString())
        throw GraphParseError("expected a string", name.line(), "name");
    if (name.asString().empty())
        throw GraphParseError("expected a non-empty graph name",
                              name.line(), "name");

    const Value &ops = requireField(fields[Ops], root, kRoot, "ops");
    if (!ops.isArray())
        throw GraphParseError("expected an array", ops.line(), "ops");
    if (ops.size() == 0)
        throw GraphParseError("expected at least one op", ops.line(),
                              "ops");
    if (ops.size() >= static_cast<std::size_t>(invalidOp))
        throw GraphParseError("too many ops", ops.line(), "ops");

    Graph graph{std::string(name.asString())};
    graph.reserve(ops.size());
    std::size_t index = 0;
    for (const Value &op : ops.elements())
        addOp(graph, op, index++);
    return graph;
}

} // namespace hpim::nn::reference

#endif // HPIM_TESTS_GRAPH_IO_REFERENCE_HH
