#include "nn/graph_io.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>

#include "harness/json.hh"
#include "harness/json_writer.hh"
#include "sim/read_all.hh"

namespace hpim::nn {

namespace {

using harness::json::Number;
using harness::json::Reader;

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

/** The field of each cost slot, Muls to BytesWritten. */
constexpr double CostStructure::*kCosts[] = {
    &CostStructure::muls,      &CostStructure::adds,
    &CostStructure::specials,  &CostStructure::bytesRead,
    &CostStructure::bytesWritten,
};

enum RootField : std::size_t { SchemaVersion, Name, Ops, RootFieldCount };

constexpr std::string_view kRootFields[RootFieldCount] = {
    "schema_version", "name", "ops",
};

/** The op index fieldPath() takes for a root field. */
constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

/** Fewer bytes than any valid op takes: its keys, quoted, with their
 *  colons. */
constexpr std::size_t kMinOpBytes = [] {
    std::size_t bytes = 0;
    for (std::string_view name : kOpFields)
        bytes += name.size() + 3;
    return bytes;
}();

/** The label bytes and input ids to reserve per op: more than a
 *  Builder document's ops average (16 and 1.2), so most documents fill
 *  the graph's arrays without growing them. */
constexpr std::size_t kLabelBytesPerOp = 24, kInputsPerOp = 2;

/** Nesting depths of a graph document's parts, as Reader counts them. */
constexpr std::size_t kRootMemberDepth = 1, kOpDepth = 2,
                      kOpMemberDepth = 3, kInputDepth = 4;

/**
 * The path naming field @p name of op @p op ("ops[3].lanes"), or of the
 * root. Built only when an error is found, so a valid document
 * allocates no path strings.
 */
std::string
fieldPath(std::size_t op, std::string_view name)
{
    if (op == kRoot)
        return std::string(name);
    return "ops[" + std::to_string(op) + "]." + std::string(name);
}

/** @return whether a value starting with @p first is a number token
 *  (or no token at all, which the reader then rejects). */
bool
isNumber(char first)
{
    return first != '{' && first != '[' && first != '"' && first != 't'
           && first != 'f' && first != 'n';
}

/**
 * The slot of the member key at the cursor among @p names, or N for an
 * unknown key, which is left in @p key. Member @p pos is compared in
 * place with the key a saved document has there, and read in full
 * only when it differs.
 */
template <std::size_t N>
std::size_t
readKey(Reader &reader, const std::string_view (&names)[N],
        std::size_t pos, std::string_view &key)
{
    if (pos < N && reader.tryKey(names[pos])) {
        key = names[pos];
        return pos;
    }
    key = reader.key();
    std::size_t k = 0;
    while (k < N && key != names[k])
        ++k;
    return k;
}

/**
 * The unknown and duplicate members of one object, noted as they are
 * read. The error is the one a pairwise scan finds first: the earliest
 * member that is unknown or repeated later wins, and a duplicate is
 * reported at its first repeat.
 */
template <std::size_t N>
class FieldSet
{
  public:
    /** Note the next member, slot @p k (N when unknown) named @p key,
     *  whose value starts on @p line. @return whether it is the first
     *  member of a known field. */
    bool
    note(std::size_t k, std::string_view key, std::size_t line)
    {
        const std::size_t pos = _count++;
        if (k == N) {
            if (pos < _badRank)
                bad(pos, true, key, line);
            return false;
        }
        if (!has(k)) {
            _firstPlusOne[k] = pos + 1;
            return true;
        }
        const std::size_t first = _firstPlusOne[k] - 1;
        if (!_repeated[k]) {
            _repeated[k] = true;
            if (first < _badRank)
                bad(first, false, key, line);
        }
        return false;
    }

    /** @return the members noted so far. */
    std::size_t count() const { return _count; }

    bool has(std::size_t k) const { return _firstPlusOne[k] != 0; }

    /** @return the unknown or duplicate field of op @p op, if any. */
    std::optional<GraphParseError>
    error(std::size_t op) const
    {
        if (_badRank == kNone)
            return std::nullopt;
        return GraphParseError(_badUnknown ? "unknown field"
                                           : "duplicate field",
                               _badLine, fieldPath(op, _badKey));
    }

  private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    void
    bad(std::size_t rank, bool unknown, std::string_view key,
        std::size_t line)
    {
        _badRank = rank;
        _badUnknown = unknown;
        _badKey.assign(key);
        _badLine = line;
    }

    std::size_t _firstPlusOne[N] = {}; ///< 0: not seen yet
    bool _repeated[N] = {};
    std::size_t _count = 0;
    std::size_t _badRank = kNone;
    bool _badUnknown = false;
    std::string _badKey;
    std::size_t _badLine = 0;
};

/**
 * Reads one graph document in one pass, building the graph as it goes.
 * Saved documents list every field in emission order, so each key is
 * first compared in place with the one expected there.
 *
 * Diagnostics do not depend on the order the document lists fields
 * in. A syntax error anywhere wins, thrown where it is met. Semantic
 * errors are held while the rest of the document is syntax-checked,
 * and the first in check order is thrown: the root's unknown or duplicate fields, its
 * fields in slot order, then the ops by index, each op's unknown or
 * duplicate fields before its fields in slot order. An "ops" met
 * before a valid "name" is syntax-checked, and read again once the
 * rest of the root has been checked.
 */
class GraphReader
{
  public:
    explicit GraphReader(std::string_view text) : _reader(text) {}

    Graph
    load()
    {
        const bool ops_now = readRoot();
        Graph graph{std::move(_name)};
        if (ops_now) {
            readOps(_reader, graph);
            if (_reader.nextMember())
                readRootMembers();
        }
        _reader.end();
        throwHeld();
        if (!_deferredOps.empty()) {
            Reader again(_deferredOps, _deferredLine);
            readOps(again, graph);
            throwHeld();
        }
        return graph;
    }

  private:
    /** Hold @p error for root slot @p slot. */
    void
    holdRoot(RootField slot, std::string message, std::size_t line)
    {
        _rootErrors[slot] = GraphParseError(
            std::move(message), line, std::string(kRootFields[slot]));
    }

    /** Throw the first held error in check order. */
    void
    throwHeld() const
    {
        if (_notObject)
            throw GraphParseError("expected a graph object", _rootLine);
        if (auto error = _rootFields.error(kRoot))
            throw *error;
        for (std::size_t k = 0; k < RootFieldCount; ++k) {
            if (!_rootFields.has(k))
                throw GraphParseError("missing field", _rootLine,
                                      std::string(kRootFields[k]));
            if (_rootErrors[k])
                throw *_rootErrors[k];
        }
        if (_opError)
            throw *_opError;
    }

    /** Read the root up to an "ops" that can be read now. @return
     *  whether the cursor is at one. */
    bool
    readRoot()
    {
        const char first = _reader.peek();
        _rootLine = _reader.line();
        if (first != '{') {
            _notObject = true;
            _reader.skip(0);
            return false;
        }
        return _reader.beginObject(0) && readRootMembers();
    }

    /** Read root members from the cursor on, up to the end of the root
     *  or an "ops" that can be read now. @return whether at one. */
    bool
    readRootMembers()
    {
        do {
            std::string_view key;
            const std::size_t k = readKey(_reader, kRootFields,
                                          _rootFields.count(), key);
            const char first = _reader.peek();
            const std::size_t line = _reader.line();
            if (!_rootFields.note(k, key, line)) {
                _reader.skip(kRootMemberDepth);
                continue;
            }
            switch (k) {
              case SchemaVersion: readVersion(first, line); break;
              case Name: readName(first, line); break;
              case Ops:
                if (_nameRead)
                    return true;
                _deferredOps = _reader.rest();
                _deferredLine = line;
                _reader.skip(kRootMemberDepth);
                break;
            }
        } while (_reader.nextMember());
        return false;
    }

    void
    readVersion(char first, std::size_t line)
    {
        if (!isNumber(first)) {
            holdRoot(SchemaVersion, "expected an integer", line);
            _reader.skip(kRootMemberDepth);
            return;
        }
        const auto version = harness::json::toInt64(_reader.number());
        if (!version)
            holdRoot(SchemaVersion, "expected an integer", line);
        else if (*version != graphSchemaVersion)
            holdRoot(SchemaVersion,
                     "unsupported schema version "
                         + std::to_string(*version) + " (expected "
                         + std::to_string(graphSchemaVersion) + ")",
                     line);
    }

    void
    readName(char first, std::size_t line)
    {
        if (first != '"') {
            holdRoot(Name, "expected a string", line);
            _reader.skip(kRootMemberDepth);
            return;
        }
        const std::string_view name = _reader.string();
        if (name.empty()) {
            holdRoot(Name, "expected a non-empty graph name", line);
            return;
        }
        _name = std::string(name);
        _nameRead = true;
    }

    /** Read the "ops" value at the cursor of @p reader into @p graph. */
    void
    readOps(Reader &reader, Graph &graph)
    {
        const char first = reader.peek();
        const std::size_t line = reader.line();
        if (first != '[') {
            holdRoot(Ops, "expected an array", line);
            reader.skip(kRootMemberDepth);
            return;
        }
        if (!reader.beginArray(kRootMemberDepth)) {
            holdRoot(Ops, "expected at least one op", line);
            return;
        }
        const std::size_t ops = reserveFor(reader.rest());
        graph.reserve(ops, ops * kLabelBytesPerOp, ops * kInputsPerOp);
        std::size_t index = 0;
        do {
            if (index + 1 == invalidOp)
                holdRoot(Ops, "too many ops", line);
            if (_opError || _rootErrors[Ops])
                reader.skip(kOpDepth);
            else
                readOp(reader, graph, index);
            ++index;
        } while (reader.nextElement());
    }

    /**
     * The op count to reserve for the ops array whose elements start
     * @p rest: its '{' bytes up to the end of the text, one per op in a
     * saved document, but never more than a valid op's minimum size
     * allows.
     */
    static std::size_t
    reserveFor(std::string_view rest)
    {
        std::size_t count = 0;
        const char *p = rest.data();
        const char *const end = p + rest.size();
        while ((p = static_cast<const char *>(
                    std::memchr(p, '{', static_cast<std::size_t>(end - p)))))
        {
            ++count;
            ++p;
        }
        return std::min(count, rest.size() / kMinOpBytes);
    }

    /** The first error of the op being read, in slot order. */
    struct SlotError
    {
        std::size_t slot = OpFieldCount;
        std::string message;
        std::size_t line = 0;
    };

    static void
    bad(SlotError &error, std::size_t slot, std::string message,
        std::size_t line)
    {
        if (slot < error.slot)
            error = {slot, std::move(message), line};
    }

    /** Read a cost (or lanes) value starting with @p first. */
    static double
    readCost(Reader &reader, char first, std::size_t line,
             std::size_t slot, SlotError &error)
    {
        if (!isNumber(first)) {
            bad(error, slot, "expected a number", line);
            reader.skip(kOpMemberDepth);
            return 0.0;
        }
        const Number number = reader.number();
        const auto value = harness::json::toDouble(number);
        if (!value)
            bad(error, slot,
                "malformed number '" + std::string(number.text) + "'",
                line);
        else if (!std::isfinite(*value))
            bad(error, slot, "expected a finite number", line);
        else if (*value < 0.0)
            bad(error, slot, "expected a non-negative number", line);
        else
            return *value;
        return 0.0;
    }

    /** Read the inputs array of op @p index into _inputs. */
    void
    readInputs(Reader &reader, char first, std::size_t line,
               std::size_t index, SlotError &error)
    {
        if (first != '[') {
            bad(error, Inputs, "expected an array", line);
            reader.skip(kOpMemberDepth);
            return;
        }
        _inputs.clear();
        if (!reader.beginArray(kOpMemberDepth))
            return;
        bool ok = true;
        do {
            const char dep_first = reader.peek();
            const std::size_t dep_line = reader.line();
            if (!ok || !isNumber(dep_first)) {
                if (ok)
                    bad(error, Inputs, "expected an op index", dep_line);
                ok = false;
                reader.skip(kInputDepth);
                continue;
            }
            const auto dep = harness::json::toUInt64(reader.number());
            if (!dep) {
                bad(error, Inputs, "expected a non-negative op index",
                    dep_line);
                ok = false;
            } else if (*dep >= index) {
                bad(error, Inputs,
                    "input " + std::to_string(*dep)
                        + " does not precede op " + std::to_string(index)
                        + " (ops must be topologically ordered)",
                    dep_line);
                ok = false;
            } else {
                _inputs.push_back(static_cast<OpId>(*dep));
            }
        } while (reader.nextElement());
    }

    /** Read op @p index and append it to @p graph, or hold its error. */
    void
    readOp(Reader &reader, Graph &graph, std::size_t index)
    {
        const char first = reader.peek();
        const std::size_t line = reader.line();
        if (first != '{') {
            _opError = GraphParseError("expected an object", line,
                                       "ops[" + std::to_string(index)
                                           + "]");
            reader.skip(kOpDepth);
            return;
        }
        FieldSet<OpFieldCount> fields;
        SlotError error;
        OpType type = OpType::MatMul;
        CostStructure cost;
        FixedParallelism parallelism;
        if (reader.beginObject(kOpDepth)) {
            do {
                std::string_view key;
                const std::size_t k = readKey(reader, kOpFields,
                                              fields.count(), key);
                const char value = reader.peek();
                const std::size_t value_line = reader.line();
                if (!fields.note(k, key, value_line)) {
                    reader.skip(kOpMemberDepth);
                    continue;
                }
                switch (k) {
                  case Type:
                  case Label: {
                    if (value != '"') {
                        bad(error, k, "expected a string", value_line);
                        reader.skip(kOpMemberDepth);
                        break;
                    }
                    const std::string_view text = reader.string();
                    if (k == Label) {
                        if (text.empty())
                            bad(error, k, "expected a non-empty label",
                                value_line);
                        // An escaped label is a view of the reader's
                        // buffer, which the next string overwrites.
                        _label.assign(text);
                    } else if (auto resolved = opTypeFromName(text)) {
                        type = *resolved;
                    } else {
                        bad(error, k,
                            "unknown op type '" + std::string(text) + "'",
                            value_line);
                    }
                    break;
                  }
                  case Muls:
                  case Adds:
                  case Specials:
                  case BytesRead:
                  case BytesWritten:
                    cost.*kCosts[k - Muls] =
                        readCost(reader, value, value_line, k, error);
                    break;
                  case UnitsPerLane: {
                    if (!isNumber(value)) {
                        bad(error, k, "expected a number", value_line);
                        reader.skip(kOpMemberDepth);
                        break;
                    }
                    const auto units =
                        harness::json::toUInt64(reader.number());
                    if (!units)
                        bad(error, k, "expected a non-negative integer",
                            value_line);
                    else if (*units
                             > std::numeric_limits<std::uint32_t>::max())
                        bad(error, k, "value out of 32-bit range",
                            value_line);
                    else
                        parallelism.unitsPerLane =
                            static_cast<std::uint32_t>(*units);
                    break;
                  }
                  case Lanes:
                    parallelism.lanes =
                        readCost(reader, value, value_line, k, error);
                    break;
                  case Inputs:
                    readInputs(reader, value, value_line, index, error);
                    break;
                }
            } while (reader.nextMember());
        }
        if ((_opError = fields.error(index)))
            return;
        std::size_t k = 0;
        while (k < error.slot && fields.has(k))
            ++k;
        if (k < error.slot) {
            _opError = GraphParseError("missing field", line,
                                       fieldPath(index, kOpFields[k]));
            return;
        }
        if (k < OpFieldCount) {
            _opError = GraphParseError(std::move(error.message), error.line,
                                       fieldPath(index, kOpFields[k]));
            return;
        }
        graph.add(type, _label, cost, parallelism, _inputs);
    }

    Reader _reader;
    std::size_t _rootLine = 1;
    bool _notObject = false;
    FieldSet<RootFieldCount> _rootFields;
    std::optional<GraphParseError> _rootErrors[RootFieldCount];
    std::string _name;
    bool _nameRead = false;
    /** The text from an "ops" read before the name, and its line. */
    std::string_view _deferredOps;
    std::size_t _deferredLine = 0;
    std::optional<GraphParseError> _opError;
    /** The label and inputs of the op being read, reused. */
    std::string _label;
    std::vector<OpId> _inputs;
};

} // namespace

void
saveGraph(std::ostream &os, const Graph &graph)
{
    harness::json::Writer w(os);
    w.beginObject();
    w.field("schema_version",
            static_cast<std::int64_t>(graphSchemaVersion));
    w.field("name", graph.name());
    w.key("ops").beginArray();
    for (const Operation &op : graph.ops()) {
        w.beginObject();
        w.field("type", opTraits(op.type).name);
        w.field("label", graph.label(op.id));
        w.field("muls", op.cost.muls);
        w.field("adds", op.cost.adds);
        w.field("specials", op.cost.specials);
        w.field("bytes_read", op.cost.bytesRead);
        w.field("bytes_written", op.cost.bytesWritten);
        w.field("units_per_lane", op.parallelism.unitsPerLane);
        w.field("lanes", op.parallelism.lanes);
        w.key("inputs").beginArray();
        for (OpId dep : graph.inputs(op.id))
            w.value(dep);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
graphToJson(const Graph &graph)
{
    std::ostringstream os;
    saveGraph(os, graph);
    return os.str();
}

Graph
loadGraph(const std::string &text)
{
    try {
        return GraphReader(text).load();
    } catch (const harness::json::Error &err) {
        throw GraphParseError(err.what(), err.line);
    }
}

std::string
readGraphFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw GraphParseError("cannot open graph file '" + path + "'");
    std::optional<std::string> text = hpim::sim::readAll(in);
    if (!text)
        throw GraphParseError("cannot read graph file '" + path + "'");
    return std::move(*text);
}

Graph
loadGraphFile(const std::string &path)
{
    const std::string text = readGraphFile(path);
    try {
        return loadGraph(text);
    } catch (const GraphParseError &err) {
        throw GraphParseError::inFile(err, path);
    }
}

void
saveGraphFile(const std::string &path, const Graph &graph)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw GraphParseError("cannot open graph file '" + path
                              + "' for writing");
    saveGraph(out, graph);
    out << '\n';
    out.flush();
    if (!out)
        throw GraphParseError("cannot write graph file '" + path + "'");
}

} // namespace hpim::nn
