/**
 * @file
 * Deterministic mutational fuzzer for graph documents (nn/graph_io.hh):
 * the seeds are every file in tests/graphs/bad/ and examples/graphs/,
 * plus spelling variants of the committed graphs, and each iteration
 * applies one to three mutations (tests/fuzz_mutations.hh) drawn from
 * its own sim::Rng stream, so a failure reproduces from the printed
 * iteration alone. The pass rule is the loader's contract, checked
 * against the reference loader (tests/graph_io_reference.hh): every
 * input raises the reference's GraphParseError, message, line and
 * field alike, or loads into the reference's graph, saved bytes and
 * signature alike, whose save -> load -> save is byte-stable. An
 * untyped exception fails the test; a crash or a sanitizer report
 * fails the binary (the ASan+UBSan CI job runs it through ctest).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_mutations.hh"
#include "graph_io_reference.hh"
#include "harness/json.hh"
#include "nn/graph_io.hh"
#include "nn/models.hh"
#include "sim/rng.hh"

using namespace hpim;
using fuzz::pick;
namespace json = harness::json;

namespace {

constexpr std::uint64_t kFuzzSeed = 0x67726170685f696fULL;
constexpr std::size_t kIterations = 10000;

/** The documents in @p dir, in name order. */
std::vector<std::string>
readDocuments(const char *dir)
{
    std::vector<std::filesystem::path> paths;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::filesystem::path(HPIM_SOURCE_DIR) / dir))
        paths.push_back(entry.path());
    // Directory order is unspecified; the corpus order is not.
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> documents;
    for (const auto &path : paths) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        documents.push_back(text.str());
    }
    return documents;
}

/** What one loader made of one document. */
struct Outcome
{
    bool loaded = false;
    std::string what; ///< rejected: the diagnostic
    std::size_t line = 0;
    std::string field;
    std::string saved; ///< loaded: graphToJson of the graph
    std::uint64_t signature = 0;

    bool operator==(const Outcome &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Outcome &outcome)
{
    if (outcome.loaded)
        return os << "loaded, signature " << outcome.signature
                  << ", saved head " << outcome.saved.substr(0, 120);
    return os << "rejected: " << outcome.what << " (line " << outcome.line
              << ", field '" << outcome.field << "')";
}

/** @return what @p load made of @p doc. Untyped exceptions escape. */
template <class Load>
Outcome
outcomeOf(Load load, const std::string &doc)
{
    Outcome outcome;
    try {
        const nn::Graph graph = load(doc);
        outcome.loaded = true;
        outcome.saved = nn::graphToJson(graph);
        outcome.signature = graph.signature();
    } catch (const nn::GraphParseError &e) {
        outcome.what = e.what();
        outcome.line = e.line;
        outcome.field = e.field;
    }
    return outcome;
}

/**
 * Append @p value as JSON text: numbers as their source tokens, each
 * object's members in reverse when @p reverse, and when @p newline is
 * set, one member or element per line, indented a space per level.
 */
void
rewrite(std::string &out, const json::Value &value, bool reverse,
        const char *newline, std::size_t depth = 0)
{
    auto breakLine = [&](std::size_t level) {
        if (newline) {
            out += newline;
            out.append(level, ' ');
        }
    };
    switch (value.kind()) {
      case json::Value::Kind::Object: {
        std::vector<std::pair<std::string_view, const json::Value *>>
            members;
        for (const auto &[key, member] : value.members())
            members.emplace_back(key, &member);
        if (reverse)
            std::reverse(members.begin(), members.end());
        out += '{';
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (i)
                out += ',';
            breakLine(depth + 1);
            out += '"';
            json::escape(out, members[i].first);
            out += newline ? "\": " : "\":";
            rewrite(out, *members[i].second, reverse, newline, depth + 1);
        }
        if (!members.empty())
            breakLine(depth);
        out += '}';
        break;
      }
      case json::Value::Kind::Array: {
        out += '[';
        std::size_t i = 0;
        for (const json::Value &element : value.elements()) {
            if (i++)
                out += ',';
            breakLine(depth + 1);
            rewrite(out, element, reverse, newline, depth + 1);
        }
        if (i)
            breakLine(depth);
        out += ']';
        break;
      }
      case json::Value::Kind::String:
        out += '"';
        json::escape(out, value.asString());
        out += '"';
        break;
      case json::Value::Kind::Number: out += value.numberText(); break;
      case json::Value::Kind::Bool:
        out += value.asBool() ? "true" : "false";
        break;
      case json::Value::Kind::Null: out += "null"; break;
    }
}

/**
 * Spellings of the saved document @p doc that must load to the same
 * graph: every object's keys reversed (so "ops" comes before "name"),
 * indented with CRLF line ends, and the first op's "label" key escaped.
 */
std::vector<std::pair<const char *, std::string>>
variantsOf(const std::string &doc)
{
    const json::Value root = json::parse(doc);
    std::string reversed, indented;
    rewrite(reversed, root, true, nullptr);
    rewrite(indented, root, false, "\r\n");
    std::string escaped = doc;
    const std::size_t label = escaped.find("\"label\":");
    escaped.replace(label, 8, "\"l\\u0061bel\":");
    return {{"keys reversed", reversed},
            {"indented, CRLF", indented},
            {"escaped key", escaped}};
}

} // namespace

TEST(GraphFuzz, VariantsLoadToTheSameGraph)
{
    std::vector<std::string> documents = readDocuments("examples/graphs");
    for (nn::ModelId model :
         {nn::ModelId::Vgg19, nn::ModelId::AlexNet, nn::ModelId::Dcgan,
          nn::ModelId::ResNet50, nn::ModelId::InceptionV3})
        documents.push_back(nn::graphToJson(nn::buildModel(model)));
    for (const std::string &doc : documents) {
        const nn::Graph graph = nn::loadGraph(doc);
        const std::string saved = nn::graphToJson(graph);
        for (const auto &[note, variant] : variantsOf(doc)) {
            ASSERT_NE(variant, doc) << note;
            const Outcome outcome = outcomeOf(nn::loadGraph, variant);
            EXPECT_TRUE(outcome.loaded) << graph.name() << ", " << note
                                        << ": " << outcome;
            EXPECT_EQ(outcome.signature, graph.signature())
                << graph.name() << ", " << note;
            EXPECT_EQ(outcome.saved, saved) << graph.name() << ", " << note;
            EXPECT_EQ(outcomeOf(nn::reference::loadGraph, variant),
                      outcome)
                << graph.name() << ", " << note;
        }
    }
}

TEST(GraphFuzz, EveryMutantIsTypedOrRoundTrips)
{
    const std::vector<std::string> bad = readDocuments("tests/graphs/bad");
    std::vector<std::string> good = readDocuments("examples/graphs");
    ASSERT_FALSE(bad.empty());
    ASSERT_FALSE(good.empty());
    // Out-of-order and escaped keys take the loader's slow path.
    for (std::size_t i = 0, n = good.size(); i < n; ++i)
        for (const auto &variant : variantsOf(good[i]))
            good.push_back(variant.second);
    std::size_t loaded = 0, rejected = 0;
    for (std::size_t i = 0; i < kIterations; ++i) {
        sim::Rng rng(sim::Rng::streamSeed(kFuzzSeed, i));
        // Half the mutants start from a valid document, so some still
        // load and the round trip gets exercised.
        const std::vector<std::string> &seeds =
            rng.chance(0.5) ? good : bad;
        std::string doc = seeds[pick(rng, seeds.size())];
        const std::string trail = fuzz::mutateSome(doc, rng);
        try {
            const Outcome outcome = outcomeOf(nn::loadGraph, doc);
            ASSERT_EQ(outcome, outcomeOf(nn::reference::loadGraph, doc))
                << "iteration " << i << " (" << trail
                << ") disagrees with the reference loader"
                << "\ninput head: " << doc.substr(0, 200);
            if (!outcome.loaded) {
                ++rejected;
                continue;
            }
            const std::string twice =
                nn::graphToJson(nn::loadGraph(outcome.saved));
            ASSERT_EQ(outcome.saved, twice)
                << "iteration " << i << " (" << trail
                << ") does not round-trip";
            ++loaded;
        } catch (const std::exception &e) {
            FAIL() << "iteration " << i << " (" << trail
                   << ") escaped untyped: " << e.what()
                   << "\ninput head: " << doc.substr(0, 200);
        }
    }
    // Both outcomes must be exercised for the pass rule to mean much.
    EXPECT_GT(loaded, kIterations / 100);
    EXPECT_GT(rejected, kIterations / 2);
    std::cout << "[ fuzz     ] " << loaded << " loaded, " << rejected
              << " rejected of " << kIterations << "\n";
}
