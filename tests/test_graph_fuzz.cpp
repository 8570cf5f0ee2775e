/**
 * @file
 * Deterministic mutational fuzzer for graph documents (nn/graph_io.hh):
 * the seeds are every file in tests/graphs/bad/ and examples/graphs/,
 * and each iteration applies one to three mutations
 * (tests/fuzz_mutations.hh) drawn from its own sim::Rng stream, so a
 * failure reproduces from the printed iteration alone. The pass rule
 * is the loader's contract: every input either raises GraphParseError
 * or loads into a graph whose save -> load -> save is byte-stable. An
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

#include "fuzz_mutations.hh"
#include "nn/graph_io.hh"
#include "sim/rng.hh"

using namespace hpim;
using fuzz::pick;

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
        const std::string trail = fuzz::mutateSome(doc, rng);
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
