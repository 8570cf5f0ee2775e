/**
 * @file
 * Deterministic mutational fuzzer for graph documents (nn/graph_io.hh):
 * the seeds are every file in tests/graphs/bad/ and examples/graphs/,
 * and each iteration applies one to three mutations -- flip a bit,
 * insert a JSON-significant byte, delete a range, truncate, turn a
 * digit into an exponent marker, duplicate a field, wrap a value in
 * nesting -- drawn from its own sim::Rng stream, so a failure
 * reproduces from the printed iteration alone. The pass rule is the
 * loader's contract: every input either raises GraphParseError or
 * loads into a graph whose save -> load -> save is byte-stable. An
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
#include <vector>

#include "nn/graph_io.hh"
#include "sim/rng.hh"

using namespace hpim;

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

std::size_t
pick(sim::Rng &rng, std::size_t bound)
{
    return static_cast<std::size_t>(
        rng.below(std::max<std::size_t>(bound, 1)));
}

/** Apply one random mutation to @p doc; @return its name. */
const char *
mutate(std::string &doc, sim::Rng &rng)
{
    static const std::string kAlphabet =
        "{}[]\":,-+.eE0123456789 \n\\tfnu";
    const std::size_t at = pick(rng, doc.size() + 1);
    switch (rng.below(7)) {
      case 0:
        if (!doc.empty())
            doc[pick(rng, doc.size())] ^= char(1u << rng.below(8));
        return "flip";
      case 1:
        doc.insert(at, 1, kAlphabet[pick(rng, kAlphabet.size())]);
        return "insert";
      case 2:
        doc.erase(std::min(at, doc.size()), 1 + pick(rng, 16));
        return "delete";
      case 3:
        doc.resize(std::min(at, doc.size()));
        return "truncate";
      case 4: {
        const std::size_t digit = doc.find_first_of("0123456789", at);
        if (digit != std::string::npos)
            doc[digit] = rng.chance(0.5) ? 'e' : 'E';
        return "digit->e";
      }
      case 5: {
        // Repeat the field after the next comma inside an object.
        const std::size_t comma = doc.find(",\"", at);
        if (comma == std::string::npos)
            return "duplicate";
        const std::size_t end = doc.find_first_of(",}", comma + 1);
        if (end == std::string::npos)
            return "duplicate";
        doc.insert(end, doc.substr(comma, end - comma));
        return "duplicate";
      }
      default: {
        // Wrap the value after the next colon in brackets; the deepest
        // choices pass the reader's nesting limit.
        static const std::size_t kDepths[] = {1,  2,  8,      63,
                                              64, 70, 100'000};
        const std::size_t colon = doc.find(':', at);
        if (colon == std::string::npos)
            return "nest";
        const std::size_t end = doc.find_first_of(",}", colon + 1);
        const std::size_t depth = kDepths[pick(rng, std::size(kDepths))];
        if (end != std::string::npos)
            doc.insert(end, depth, ']');
        doc.insert(colon + 1, depth, '[');
        return "nest";
      }
    }
}

} // namespace

TEST(GraphFuzz, EveryMutantIsTypedOrRoundTrips)
{
    const std::vector<std::string> bad = readDocuments("tests/graphs/bad");
    const std::vector<std::string> good = readDocuments("examples/graphs");
    ASSERT_FALSE(bad.empty());
    ASSERT_FALSE(good.empty());
    std::size_t loaded = 0, rejected = 0;
    for (std::size_t i = 0; i < kIterations; ++i) {
        sim::Rng rng(sim::Rng::streamSeed(kFuzzSeed, i));
        // Half the mutants start from a valid document, so some still
        // load and the round trip gets exercised.
        const std::vector<std::string> &seeds =
            rng.chance(0.5) ? good : bad;
        std::string doc = seeds[pick(rng, seeds.size())];
        std::string trail;
        for (std::uint64_t m = 0, n = 1 + rng.below(3); m < n; ++m)
            trail += std::string(m ? "+" : "") + mutate(doc, rng);
        try {
            nn::Graph graph = nn::loadGraph(doc);
            const std::string once = nn::graphToJson(graph);
            const std::string twice =
                nn::graphToJson(nn::loadGraph(once));
            ASSERT_EQ(once, twice) << "iteration " << i << " (" << trail
                                   << ") does not round-trip";
            ++loaded;
        } catch (const nn::GraphParseError &) {
            ++rejected;
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
