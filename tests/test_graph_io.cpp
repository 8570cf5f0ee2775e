/**
 * @file
 * Unit tests for the versioned JSON graph format (nn/graph_io.hh):
 * byte-identical save/load round trips, signature preservation (the
 * memo-cache/journal identity), and the strict loader -- every
 * malformed document must produce a typed GraphParseError naming the
 * offending field and line, never a crash or a silent default.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "allocation_count.hh"
#include "graph_queries.hh"
#include "nn/graph_builder.hh"
#include "nn/graph_io.hh"
#include "nn/models.hh"

using namespace hpim::nn;
using hpim::test::inputsOf;

namespace {

std::string
readSourceFile(const std::string &relative)
{
    std::ifstream in(std::string(HPIM_SOURCE_DIR) + "/" + relative,
                     std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

Graph
smallTrainingGraph()
{
    Builder b("tiny");
    auto x = b.input(TensorShape{2, 8, 8, 3});
    x = b.conv2d(x, 3, 4, 1);
    x = b.maxPool(x, 2, 2);
    x = b.flatten(x);
    x = b.dense(x, 10, false);
    return b.trainingStep(x, Optimizer::Adam);
}

/** Expect loadGraph(text) to throw naming @p field. */
void
expectRejected(const std::string &text, const std::string &field,
               const char *note)
{
    try {
        loadGraph(text);
        FAIL() << note << ": malformed document was accepted";
    } catch (const GraphParseError &e) {
        EXPECT_EQ(e.field, field) << note << ": " << e.what();
        if (!field.empty()) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << note << ": what() must name the field";
        }
    }
}

/** @return the bit pattern of @p value (tells -0 from 0). */
std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** A valid one-op document to mutate from. */
std::string
validDoc(const std::string &op_overrides = "")
{
    std::string op = "{\"type\":\"MatMul\",\"label\":\"l/MatMul\","
                     "\"muls\":8,\"adds\":8,\"specials\":0,"
                     "\"bytes_read\":64,\"bytes_written\":32,"
                     "\"units_per_lane\":4,\"lanes\":2,\"inputs\":[]";
    if (!op_overrides.empty())
        op += "," + op_overrides;
    op += "}";
    return "{\"schema_version\":1,\"name\":\"t\",\"ops\":[" + op
           + "]}";
}

} // namespace

// ---------------------------------------------------------- round trips

TEST(GraphIo, SaveLoadRoundTripIsByteIdentical)
{
    Graph g = smallTrainingGraph();
    std::string first = graphToJson(g);
    Graph reloaded = loadGraph(first);
    std::string second = graphToJson(reloaded);
    EXPECT_EQ(first, second);
}

TEST(GraphIo, RoundTripPreservesStructureAndSignature)
{
    Graph g = smallTrainingGraph();
    Graph r = loadGraph(graphToJson(g));
    ASSERT_EQ(r.size(), g.size());
    EXPECT_EQ(r.name(), g.name());
    EXPECT_EQ(r.signature(), g.signature());
    for (OpId id = 0; id < g.size(); ++id) {
        EXPECT_EQ(r.op(id).type, g.op(id).type);
        EXPECT_EQ(r.label(id), g.label(id));
        EXPECT_EQ(inputsOf(r, id), inputsOf(g, id));
        EXPECT_EQ(r.op(id).cost.muls, g.op(id).cost.muls);
        EXPECT_EQ(r.op(id).cost.bytesRead, g.op(id).cost.bytesRead);
        EXPECT_EQ(r.op(id).parallelism.unitsPerLane,
                  g.op(id).parallelism.unitsPerLane);
        EXPECT_EQ(r.op(id).parallelism.lanes,
                  g.op(id).parallelism.lanes);
    }
}

TEST(GraphIo, BuiltInModelsSurviveTheRoundTrip)
{
    // The --graph <--> --model byte-identity anchor: a dumped built-in
    // reloads with the same signature, so the same memo-cache identity
    // and the same simulation results.
    for (ModelId model : {ModelId::AlexNet, ModelId::Lstm}) {
        Graph g = buildModel(model);
        Graph r = loadGraph(graphToJson(g));
        EXPECT_EQ(r.signature(), g.signature())
            << modelName(model);
        EXPECT_EQ(graphToJson(r), graphToJson(g));
    }
}

TEST(GraphIo, LongLabelsAndManyInputsRoundTrip)
{
    // Labels past a std::string's 15-byte inline buffer, one of 4000
    // bytes, and an op with 300 inputs (a repeated one among them).
    Graph g("wide-and-long");
    const std::string long_label(4000, 'x');
    std::vector<OpId> many;
    for (OpId i = 0; i < 300; ++i) {
        g.add(OpType::MatMul,
              "layer" + std::to_string(i) + "/a-label-of-some-length",
              CostStructure{}, FixedParallelism{});
        many.push_back(i / 2 * 2);
    }
    g.add(OpType::Concat, long_label, CostStructure{},
          FixedParallelism{}, many);
    g.add(OpType::Relu, "tail/Relu", CostStructure{}, FixedParallelism{},
          {300, 0, 300});

    const std::string text = graphToJson(g);
    const Graph r = loadGraph(text);
    EXPECT_EQ(graphToJson(r), text);
    EXPECT_EQ(r.signature(), g.signature());
    EXPECT_EQ(r.label(300), long_label);
    EXPECT_EQ(inputsOf(r, 300), many);
    EXPECT_EQ(inputsOf(r, 301), (std::vector<OpId>{300, 0, 300}));
    EXPECT_EQ(r.label(299), "layer299/a-label-of-some-length");
}

TEST(GraphIo, EscapedLabelBeforeEscapedTypeLoads)
{
    // Both strings decode into the reader's one buffer, so the label
    // must be copied before the type is read.
    const std::string text =
        R"({"schema_version":1,"name":"escapes","ops":[)"
        R"({"label":"conv\u0031/\"quoted\"\\path\tlong-enough",)"
        R"("type":"Mat\u004dul","muls":1,"adds":1,"specials":0,)"
        R"("bytes_read":4,"bytes_written":4,"units_per_lane":1,)"
        R"("lanes":1,"inputs":[]}]})";
    const std::string label = "conv1/\"quoted\"\\path\tlong-enough";
    const Graph g = loadGraph(text);
    ASSERT_EQ(g.size(), 1u);
    EXPECT_EQ(g.op(0).type, OpType::MatMul);
    EXPECT_EQ(g.label(0), label);

    Graph built("escapes");
    CostStructure cost;
    cost.muls = cost.adds = 1;
    cost.bytesRead = cost.bytesWritten = 4;
    FixedParallelism parallelism;
    parallelism.unitsPerLane = 1;
    parallelism.lanes = 1;
    built.add(OpType::MatMul, label, cost, parallelism);
    EXPECT_EQ(g.signature(), built.signature());
    const std::string saved = graphToJson(g);
    EXPECT_EQ(saved, graphToJson(built));
    EXPECT_EQ(graphToJson(loadGraph(saved)), saved);
    EXPECT_NE(
        saved.find(R"("label":"conv1/\"quoted\"\\path\tlong-enough")"),
        std::string::npos)
        << saved;
}

TEST(GraphIo, FileRoundTrip)
{
    std::string path = ::testing::TempDir() + "graph_io_rt.json";
    Graph g = smallTrainingGraph();
    saveGraphFile(path, g);
    Graph r = loadGraphFile(path);
    EXPECT_EQ(r.signature(), g.signature());
    std::remove(path.c_str());
}

// -------------------------------------------------------- typed errors

TEST(GraphIo, RejectsNonJson)
{
    try {
        loadGraph("not json at all");
        FAIL();
    } catch (const GraphParseError &e) {
        EXPECT_GT(e.line, 0);
    }
}

TEST(GraphIo, RejectsRootShapeErrors)
{
    expectRejected("[1,2,3]", "", "root must be an object");
    expectRejected("{\"name\":\"t\",\"ops\":[]}", "schema_version",
                   "missing schema_version");
    expectRejected(
        "{\"schema_version\":99,\"name\":\"t\",\"ops\":[]}",
        "schema_version", "unsupported version");
    expectRejected(
        "{\"schema_version\":1.5,\"name\":\"t\",\"ops\":[]}",
        "schema_version", "non-integer version");
    expectRejected("{\"schema_version\":1,\"ops\":[]}", "name",
                   "missing name");
    expectRejected("{\"schema_version\":1,\"name\":\"\",\"ops\":[]}",
                   "name", "empty name");
    expectRejected("{\"schema_version\":1,\"name\":\"t\"}", "ops",
                   "missing ops");
    expectRejected("{\"schema_version\":1,\"name\":\"t\",\"ops\":[]}",
                   "ops", "empty ops");
    expectRejected("{\"schema_version\":1,\"name\":\"t\",\"ops\":{}}",
                   "ops", "ops must be an array");
    expectRejected("{\"schema_version\":1,\"name\":\"t\",\"ops\":[],"
                   "\"extra\":0}",
                   "extra", "unknown root field");
}

TEST(GraphIo, RejectsOpShapeErrors)
{
    expectRejected("{\"schema_version\":1,\"name\":\"t\",\"ops\":[5]}",
                   "ops[0]", "op must be an object");

    std::string no_type = validDoc();
    no_type.replace(no_type.find("\"type\":\"MatMul\","), 16, "");
    expectRejected(no_type, "ops[0].type", "missing type");

    std::string bad_type = validDoc();
    bad_type.replace(bad_type.find("MatMul"), 6, "Nonsense");
    expectRejected(bad_type, "ops[0].type", "unknown op type");

    std::string bad_label = validDoc();
    bad_label.replace(bad_label.find("l/MatMul"), 8, "");
    expectRejected(bad_label, "ops[0].label", "empty label");

    std::string bad_cost = validDoc();
    bad_cost.replace(bad_cost.find("\"muls\":8"), 8,
                     "\"muls\":\"x\"");
    expectRejected(bad_cost, "ops[0].muls", "non-number cost");

    std::string neg_cost = validDoc();
    neg_cost.replace(neg_cost.find("\"adds\":8"), 8, "\"adds\":-1");
    expectRejected(neg_cost, "ops[0].adds", "negative cost");

    std::string bad_units = validDoc();
    bad_units.replace(bad_units.find("\"units_per_lane\":4"), 18,
                      "\"units_per_lane\":4.5");
    expectRejected(bad_units, "ops[0].units_per_lane",
                   "fractional units");

    std::string huge_units = validDoc();
    huge_units.replace(huge_units.find("\"units_per_lane\":4"), 18,
                       "\"units_per_lane\":4294967296");
    expectRejected(huge_units, "ops[0].units_per_lane",
                   "units out of 32-bit range");

    expectRejected(validDoc("\"bogus\":1"), "ops[0].bogus",
                   "unknown op field");
    expectRejected(validDoc("\"lanes\":3"), "ops[0].lanes",
                   "duplicate op field");
}

TEST(GraphIo, RejectsNonTopologicalInputs)
{
    std::string forward_ref = validDoc();
    forward_ref.replace(forward_ref.find("\"inputs\":[]"), 11,
                        "\"inputs\":[0]");
    expectRejected(forward_ref, "ops[0].inputs",
                   "self/forward reference");

    std::string neg_input = validDoc();
    neg_input.replace(neg_input.find("\"inputs\":[]"), 11,
                      "\"inputs\":[-1]");
    expectRejected(neg_input, "ops[0].inputs", "negative input");
}

TEST(GraphIo, ErrorsCarryLineNumbers)
{
    std::string doc = "{\n\"schema_version\":1,\n\"name\":\"t\",\n"
                      "\"ops\":\n[\n{\"type\":\"Nope\"}\n]}";
    try {
        loadGraph(doc);
        FAIL();
    } catch (const GraphParseError &e) {
        EXPECT_EQ(e.field, "ops[0].type");
        EXPECT_EQ(e.line, 6);
        EXPECT_NE(std::string(e.what()).find("line 6"),
                  std::string::npos);
    }
}

TEST(GraphIo, MissingFileIsTypedError)
{
    try {
        loadGraphFile("/nonexistent/definitely_missing.json");
        FAIL();
    } catch (const GraphParseError &e) {
        EXPECT_NE(std::string(e.what()).find("cannot open"),
                  std::string::npos);
    }
}

TEST(GraphIo, UnreadableFileIsTypedError)
{
    // A directory opens but cannot be read: no JSON syntax error.
    const std::string path = ::testing::TempDir();
    try {
        loadGraphFile(path);
        FAIL() << "a directory was loaded";
    } catch (const GraphParseError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "graph parse error: cannot read graph file '" + path
                      + "'");
        EXPECT_EQ(e.line, 0u);
        EXPECT_EQ(e.field, "");
    }
}

TEST(GraphIo, FileErrorsNameTheFile)
{
    std::string path = ::testing::TempDir() + "graph_io_bad.json";
    {
        std::ofstream out(path);
        out << "{\"schema_version\":2,\"name\":\"t\",\"ops\":[]}";
    }
    try {
        loadGraphFile(path);
        FAIL();
    } catch (const GraphParseError &e) {
        EXPECT_EQ(e.field, "schema_version");
        EXPECT_NE(std::string(e.what()).find(path),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

// ------------------------------------------------- pinned diagnostics

TEST(GraphIo, BadCorpusErrorsArePinned)
{
    // The exact diagnostic of every file in tests/graphs/bad/, so a
    // change of parser or loader cannot move a message, a line or a
    // field path. Every corpus file must have a row.
    struct Expected
    {
        std::string what;
        std::size_t line;
        std::string field;
    };
    const std::map<std::string, Expected> table = {
        {"deep_nesting.json",
         {"graph parse error: json: nesting deeper than 64 levels "
          "(line 1) at line 1",
          1, ""}},
        {"duplicate_field.json",
         {"graph parse error: duplicate field (field 'name') at line 1",
          1, "name"}},
        {"empty_name.json",
         {"graph parse error: expected a non-empty graph name "
          "(field 'name') at line 1",
          1, "name"}},
        {"empty_ops.json",
         {"graph parse error: expected at least one op (field 'ops') "
          "at line 1",
          1, "ops"}},
        {"forward_input.json",
         {"graph parse error: input 0 does not precede op 0 (ops must "
          "be topologically ordered) (field 'ops[0].inputs') at line 1",
          1, "ops[0].inputs"}},
        {"malformed_number.json",
         {"graph parse error: malformed number '1e' "
          "(field 'ops[0].muls') at line 1",
          1, "ops[0].muls"}},
        {"missing_op_field.json",
         {"graph parse error: missing field "
          "(field 'ops[0].units_per_lane') at line 1",
          1, "ops[0].units_per_lane"}},
        {"missing_schema_version.json",
         {"graph parse error: missing field (field 'schema_version') "
          "at line 1",
          1, "schema_version"}},
        {"negative_cost.json",
         {"graph parse error: expected a non-negative number "
          "(field 'ops[0].muls') at line 1",
          1, "ops[0].muls"}},
        {"not_json.json",
         {"graph parse error: json: bad literal (line 1) at line 1", 1,
          ""}},
        {"ops_not_array.json",
         {"graph parse error: expected an array (field 'ops') at line 1",
          1, "ops"}},
        {"root_not_object.json",
         {"graph parse error: expected a graph object at line 1", 1,
          ""}},
        {"string_cost.json",
         {"graph parse error: expected a number (field 'ops[0].muls') "
          "at line 1",
          1, "ops[0].muls"}},
        {"units_out_of_range.json",
         {"graph parse error: value out of 32-bit range "
          "(field 'ops[0].units_per_lane') at line 1",
          1, "ops[0].units_per_lane"}},
        {"unknown_op_type.json",
         {"graph parse error: unknown op type 'Convolution9D' "
          "(field 'ops[0].type') at line 1",
          1, "ops[0].type"}},
        {"unknown_root_field.json",
         {"graph parse error: unknown field (field 'version') at line 1",
          1, "version"}},
        {"wrong_schema_version.json",
         {"graph parse error: unsupported schema version 99 "
          "(expected 1) (field 'schema_version') at line 1",
          1, "schema_version"}},
    };

    const std::filesystem::path dir =
        std::filesystem::path(HPIM_SOURCE_DIR) / "tests/graphs/bad";
    std::size_t seen = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        auto row = table.find(name);
        ASSERT_NE(row, table.end()) << name << " has no row";
        ++seen;
        try {
            loadGraph(readSourceFile("tests/graphs/bad/" + name));
            ADD_FAILURE() << name << " was accepted";
        } catch (const GraphParseError &e) {
            EXPECT_EQ(e.what(), row->second.what) << name;
            EXPECT_EQ(e.line, row->second.line) << name;
            EXPECT_EQ(e.field, row->second.field) << name;
        }
    }
    EXPECT_EQ(seen, table.size()) << "a table row names a missing file";
}

TEST(GraphIo, DiagnosticOrderIsPinned)
{
    // Which error wins when a document has several, and which unusual
    // spellings still load. A syntax error anywhere beats every
    // semantic one; root checks beat op checks, whatever the document
    // order; ops are checked by index and, within one op, unknown and
    // duplicate fields before the fields in slot order.
    const std::string op_tail =
        "\"label\":\"l/MatMul\",\"adds\":8,\"specials\":0,"
        "\"bytes_read\":64,\"bytes_written\":32,\"units_per_lane\":4,"
        "\"lanes\":2,\"inputs\":[]}";
    auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    std::string nested_type = validDoc();
    nested_type.replace(nested_type.find("\"MatMul\""), 8, nested(61));
    std::string too_deep_type = validDoc();
    too_deep_type.replace(too_deep_type.find("\"MatMul\""), 8,
                          nested(62));
    std::string ops_first = "{\"schema_version\":1,\"ops\":["
                            + validDoc().substr(validDoc().find("{\"type"));
    ops_first.replace(ops_first.rfind("]}"), 2, "],\"name\":\"t\"}");

    struct Row
    {
        const char *note;
        std::string doc;
        std::string what; ///< empty: the document loads
        std::size_t line;
        std::string field;
    };
    const Row rows[] = {
        {"an op error, then trailing garbage",
         validDoc().replace(validDoc().find("MatMul"), 6, "Nope") + "x",
         "graph parse error: json: trailing characters after document "
         "(line 1) at line 1",
         1, ""},
        {"ops before an empty name, with a bad op",
         "{\"schema_version\":1,\"ops\":[{\"type\":\"Nope\"}],\"name\":\"\"}",
         "graph parse error: expected a non-empty graph name "
         "(field 'name') at line 1",
         1, "name"},
        {"a bad muls listed before an unknown type",
         "{\"schema_version\":1,\"name\":\"t\",\"ops\":[{\"muls\":-1,"
         "\"type\":\"Nope\","
             + op_tail + "]}",
         "graph parse error: unknown op type 'Nope' "
         "(field 'ops[0].type') at line 1",
         1, "ops[0].type"},
        {"a bad op, then a root error after it",
         "{\"name\":\"t\",\"ops\":[{\"type\":\"Nope\"}],"
         "\"schema_version\":2}",
         "graph parse error: unsupported schema version 2 (expected 1) "
         "(field 'schema_version') at line 1",
         1, "schema_version"},
        {"two bad ops",
         "{\"schema_version\":1,\"name\":\"t\",\"ops\":[{\"type\":\"Nope\","
             + op_tail + ",{\"type\":\"MatMul\",\"muls\":-1," + op_tail
             + "]}",
         "graph parse error: unknown op type 'Nope' "
         "(field 'ops[0].type') at line 1",
         1, "ops[0].type"},
        {"a missing type and a bad muls",
         "{\"schema_version\":1,\"name\":\"t\",\"ops\":[{\"muls\":-1,"
             + op_tail + "]}",
         "graph parse error: missing field (field 'ops[0].type') at line 1",
         1, "ops[0].type"},
        {"a duplicate name whose first copy precedes an unknown field",
         "{\"name\":\"a\",\"extra\":0,\"schema_version\":1,\"name\":\"b\","
         "\"ops\":[]}",
         "graph parse error: duplicate field (field 'name') at line 1", 1,
         "name"},
        {"CRLF line ends and a negative muls",
         "{\r\n\"schema_version\":1,\r\n\"name\":\"t\",\r\n"
         "\"ops\":[{\"type\":\"MatMul\",\r\n\"muls\":-1,"
             + op_tail + "]}\r\n",
         "graph parse error: expected a non-negative number "
         "(field 'ops[0].muls') at line 5",
         5, "ops[0].muls"},
        {"a type nested 61 levels deep", nested_type,
         "graph parse error: expected a string (field 'ops[0].type') "
         "at line 1",
         1, "ops[0].type"},
        {"a type nested 62 levels deep", too_deep_type,
         "graph parse error: json: nesting deeper than 64 levels "
         "(line 1) at line 1",
         1, ""},
        {"ops before name", ops_first, "", 0, ""},
        {"an escaped key",
         validDoc().replace(validDoc().find("\"name\""), 6,
                            "\"n\\u0061me\""),
         "", 0, ""},
    };
    const std::uint64_t signature = loadGraph(validDoc()).signature();
    for (const Row &row : rows) {
        try {
            const Graph graph = loadGraph(row.doc);
            EXPECT_EQ(row.what, "") << row.note << " loaded";
            EXPECT_EQ(graph.signature(), signature) << row.note;
        } catch (const GraphParseError &e) {
            EXPECT_EQ(e.what(), row.what) << row.note;
            EXPECT_EQ(e.line, row.line) << row.note;
            EXPECT_EQ(e.field, row.field) << row.note;
        }
    }
}

TEST(GraphIo, OverflowingCostsAreNotFinite)
{
    for (const char *number : {"1e999", "-1e999"}) {
        std::string doc = validDoc();
        doc.replace(doc.find("\"muls\":8"), 8,
                    std::string("\"muls\":") + number);
        try {
            loadGraph(doc);
            ADD_FAILURE() << number << " was accepted";
        } catch (const GraphParseError &e) {
            EXPECT_EQ(std::string(e.what()),
                      "graph parse error: expected a finite number "
                      "(field 'ops[0].muls') at line 1")
                << number;
        }
    }
}

TEST(GraphIo, NumberSpellingsLoadAsStrtodReadsThem)
{
    // Underflow saturates to zero, subnormals keep strtod's value, and
    // the lenient spellings the tokenizer lets through stay accepted.
    const std::pair<const char *, double> cases[] = {
        {"1e-999", 0.0},
        {"1e-310", std::strtod("1e-310", nullptr)},
        {"-0", -0.0},
        {"01", 1.0},
        {"1.", 1.0},
        {"1.e5", 1e5},
        {"123456789012345678901234567890",
         std::strtod("123456789012345678901234567890", nullptr)},
    };
    for (const auto &[number, expected] : cases) {
        std::string doc = validDoc();
        doc.replace(doc.find("\"muls\":8"), 8,
                    std::string("\"muls\":") + number);
        Graph g = loadGraph(doc);
        EXPECT_EQ(bitsOf(g.op(0).cost.muls), bitsOf(expected)) << number;
    }
    EXPECT_NE(std::fpclassify(std::strtod("1e-310", nullptr)),
              FP_NORMAL);
}

TEST(GraphIo, NonIntegralUnitsAreRejected)
{
    for (const char *number : {"1.0", "-1", "-0", "18446744073709551616"}) {
        std::string doc = validDoc();
        doc.replace(doc.find("\"units_per_lane\":4"), 18,
                    std::string("\"units_per_lane\":") + number);
        try {
            loadGraph(doc);
            ADD_FAILURE() << number << " was accepted";
        } catch (const GraphParseError &e) {
            EXPECT_EQ(std::string(e.what()),
                      "graph parse error: expected a non-negative "
                      "integer (field 'ops[0].units_per_lane') at line 1")
                << number;
        }
    }
    std::string doc = validDoc();
    doc.replace(doc.find("\"units_per_lane\":4"), 18,
                "\"units_per_lane\":04");
    EXPECT_EQ(loadGraph(doc).op(0).parallelism.unitsPerLane, 4u);
}

TEST(GraphIo, MalformedNumbersAreTypedErrors)
{
    // Tokens the tokenizer accepts but no conversion reads whole. They
    // used to escape loadGraph as an untyped json::Error.
    const std::pair<const char *, const char *> fields[] = {
        {"\"muls\":8", "muls"},
        {"\"adds\":8", "adds"},
        {"\"specials\":0", "specials"},
        {"\"bytes_read\":64", "bytes_read"},
        {"\"bytes_written\":32", "bytes_written"},
        {"\"lanes\":2", "lanes"},
    };
    for (const auto &[from, name] : fields) {
        for (const char *token : {"1e", "2E+", "1.5e-"}) {
            std::string field = "\"";
            field += name;
            field += "\":";
            field += token;
            std::string doc = validDoc();
            doc.replace(doc.find(from), std::strlen(from), field);
            try {
                loadGraph(doc);
                ADD_FAILURE() << name << "=" << token << " was accepted";
            } catch (const GraphParseError &e) {
                EXPECT_EQ(e.field, std::string("ops[0].") + name);
                EXPECT_EQ(e.line, 1u);
                EXPECT_EQ(std::string(e.what()),
                          "graph parse error: malformed number '"
                              + std::string(token) + "' (field 'ops[0]."
                              + name + "') at line 1");
            }
        }
    }
    std::string units = validDoc();
    units.replace(units.find("\"units_per_lane\":4"), 18,
                  "\"units_per_lane\":1e");
    expectRejected(units, "ops[0].units_per_lane", "malformed units");
    std::string version = validDoc();
    version.replace(version.find("\"schema_version\":1"), 18,
                    "\"schema_version\":1e");
    expectRejected(version, "schema_version", "malformed version");
}

TEST(GraphIo, DeepNestingIsATypedError)
{
    // 200k levels used to overflow the parser's stack.
    const std::string deep =
        std::string(200'000, '[') + std::string(200'000, ']');
    try {
        loadGraph(deep);
        FAIL() << "deep nesting was accepted";
    } catch (const GraphParseError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "graph parse error: json: nesting deeper than 64 "
                  "levels (line 1) at line 1");
        EXPECT_EQ(e.field, "");
    }
}

TEST(GraphIo, LoadAllocatesAtMostFourTimesPerOp)
{
    // Global operator new calls made by loadGraph, bounded per op.
    // Graphs whose ops each held their own label string and inputs
    // vector made about 1.5 per op, and the tree reader before the
    // flat one 13-15.
    for (const char *path : {"examples/graphs/transformer_train.json",
                             "examples/graphs/edge_cnn_infer.json"}) {
        const std::string text = readSourceFile(path);
        const std::size_t before = g_allocations.load();
        Graph graph = loadGraph(text);
        const std::size_t allocations = g_allocations.load() - before;
        EXPECT_LE(allocations, 4 * graph.size())
            << path << ": " << allocations << " allocations for "
            << graph.size() << " ops";
    }
}

TEST(GraphIo, LoadAllocationsArePinned)
{
    // The exact count, so a new allocation per op or per document
    // shows up as a test diff. The Graph's own: its body, its op,
    // label and input arrays, reserved once, and the first file's
    // name, too long for a string's inline buffer. The loader's: its
    // label buffer, and its inputs buffer once, and once more on the
    // first file, whose longest inputs list has two entries. Graphs
    // whose ops each held a label string and an inputs vector made 109
    // and 26.
    const std::pair<const char *, std::size_t> pins[] = {
        {"examples/graphs/transformer_train.json", 8},
        {"examples/graphs/edge_cnn_infer.json", 6},
    };
    for (const auto &[path, pinned] : pins) {
        const std::string text = readSourceFile(path);
        const std::size_t before = g_allocations.load();
        const Graph graph = loadGraph(text);
        EXPECT_EQ(g_allocations.load() - before, pinned) << path;
    }
}

TEST(GraphIo, SignaturesArePinned)
{
    // Sweep journals and memo keys hold these values, so a change to
    // the fold in Graph::add shows up here.
    for (const auto &[model, pinned] :
         std::vector<std::pair<ModelId, std::uint64_t>>{
             {ModelId::Vgg19, 999670297502517938ULL},
             {ModelId::AlexNet, 3859689414574346637ULL},
             {ModelId::Dcgan, 4032369563633149738ULL},
             {ModelId::ResNet50, 13145877588736922751ULL},
             {ModelId::InceptionV3, 15282382747249012573ULL},
         }) {
        EXPECT_EQ(buildModel(model).signature(), pinned)
            << modelName(model);
    }
    for (const auto &[path, pinned] :
         std::vector<std::pair<std::string, std::uint64_t>>{
             {"examples/graphs/transformer_train.json",
              11377109895555822359ULL},
             {"examples/graphs/edge_cnn_infer.json",
              16332112994085316366ULL},
         }) {
        EXPECT_EQ(loadGraph(readSourceFile(path)).signature(), pinned)
            << path;
    }
}

TEST(GraphIo, CopyingABuiltModelAllocatesNothing)
{
    // Copies share one body, so a memoized model reaches every sweep
    // point for free. A deep copy of ResNet-50 made 1392 allocations.
    const Graph built = buildResNet50();
    const std::size_t before = g_allocations.load();
    const Graph copy = built;
    EXPECT_EQ(g_allocations.load() - before, 0u);
    EXPECT_EQ(copy.signature(), built.signature());
}

TEST(GraphIo, SavingABuiltModelAllocatesPerDocumentOnly)
{
    // What graphToJson allocates is its stream's buffer growth and the
    // returned string, not anything per op. Writing each op type
    // through a std::string made 114 allocations here.
    const Graph built = buildResNet50();
    const std::size_t before = g_allocations.load();
    const std::string text = graphToJson(built);
    const std::size_t allocations = g_allocations.load() - before;
    EXPECT_LE(allocations, 16u) << allocations << " allocations";
    EXPECT_EQ(built.size(), 569u);
    EXPECT_EQ(text.size(), 112164u);
}

TEST(GraphIo, AddToACopyOfABuiltModelClonesThreeArrays)
{
    // add() on a copy clones the body: the name, the op records, the
    // labels and the inputs, then grows the last three. Graphs whose
    // ops each held a label string and an inputs vector made 973
    // allocations here.
    const Graph built = buildResNet50();
    const std::uint64_t signature = built.signature();
    Graph copy = built;
    const std::size_t before = g_allocations.load();
    copy.add(OpType::Relu, "extra/Relu", CostStructure{},
             FixedParallelism{}, {0});
    const std::size_t allocations = g_allocations.load() - before;
    EXPECT_LE(allocations, 8u) << allocations << " allocations";
    EXPECT_EQ(built.signature(), signature);
    EXPECT_EQ(copy.size(), built.size() + 1);
}
