/**
 * @file
 * Deterministic mutational fuzzers for the untrusted inputs other than
 * graph documents: hpim_serve frames and requests (serve/protocol.hh),
 * sweep journal files (harness/journal.hh) and fail-point specs
 * (harness/failpoint.hh). Seeds are recorded inputs -- a frame of
 * every request kind, one of them a simulate request carrying a
 * committed graph, the header and record lines of a small journaled
 * sweep, and the specs the fail-point tests and the chaos sweep
 * arm -- and each iteration applies one to
 * three mutations (tests/fuzz_mutations.hh) drawn from its own
 * sim::Rng stream, so a failure reproduces from the printed iteration
 * alone. The pass rule is each reader's documented contract: a typed
 * error or a valid result. A crash or a sanitizer report fails the
 * binary (the ASan+UBSan CI job runs it through ctest).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "baseline/presets.hh"
#include "fuzz_mutations.hh"
#include "harness/failpoint.hh"
#include "harness/json.hh"
#include "harness/journal.hh"
#include "harness/report_io.hh"
#include "harness/sweep.hh"
#include "nn/graph_io.hh"
#include "serve/protocol.hh"
#include "sim/rng.hh"

using namespace hpim;
using fuzz::pick;

namespace {

constexpr std::uint64_t kFuzzSeed = 0x696e7075745f667aULL;

nn::Graph
committedGraph()
{
    return nn::loadGraphFile(std::string(HPIM_SOURCE_DIR)
                             + "/examples/graphs/edge_cnn_infer.json");
}

/** The request payloads a client sends: every kind, with and without
 *  optional fields, and a simulate request carrying a committed graph
 *  document. */
std::vector<std::string>
recordedRequests()
{
    serve::Request ping;
    ping.id = 1;
    serve::Request stats;
    stats.id = 2;
    stats.kind = serve::RequestKind::Stats;
    serve::Request builtin;
    builtin.id = 3;
    builtin.kind = serve::RequestKind::Simulate;
    builtin.deadlineMs = 250.5;
    builtin.sim.model = "vgg19";
    builtin.sim.system = "progr";
    builtin.sim.steps = 2;
    builtin.sim.freqScale = 2.0;
    builtin.sim.progrPims = 4;
    builtin.sim.batch = 32;
    builtin.sim.rc = false;
    builtin.sim.faultRate = 1e-3;
    builtin.sim.killBanks = 3;
    builtin.sim.faultSeed = 18446744073709551615ULL;
    serve::Request graph;
    graph.id = 4;
    graph.kind = serve::RequestKind::Simulate;
    graph.sim.graph = nn::graphToJson(committedGraph());
    graph.sim.steps = 1;
    std::vector<std::string> payloads;
    for (const serve::Request *request : {&ping, &stats, &builtin, &graph})
        payloads.push_back(serve::encodeRequest(*request));
    return payloads;
}

/**
 * parseRequest()'s contract on one payload: a ProtocolError, or a
 * request whose encoding parses back to the same encoding. @return
 * false on a ProtocolError.
 */
bool
checkRequest(const std::string &payload, const std::string &context)
{
    serve::Request request;
    try {
        request = serve::parseRequest(payload);
    } catch (const serve::ProtocolError &) {
        return false;
    } catch (const std::exception &e) {
        ADD_FAILURE() << context << " escaped untyped: " << e.what()
                      << "\ninput head: " << payload.substr(0, 200);
        return false;
    }
    const std::string once = serve::encodeRequest(request);
    try {
        EXPECT_EQ(serve::encodeRequest(serve::parseRequest(once)), once)
            << context << " does not round-trip";
    } catch (const std::exception &e) {
        ADD_FAILURE() << context << ": re-encoded request rejected: "
                      << e.what();
    }
    return true;
}

/** A file under the test's temporary directory, removed on exit. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string &name)
        : _path(testing::TempDir() + "hpim_input_fuzz."
                + std::to_string(::getpid()) + "." + name)
    {
    }

    ~ScratchFile() { std::remove(_path.c_str()); }

    void
    write(const std::string &content) const
    {
        std::ofstream os(_path, std::ios::trunc | std::ios::binary);
        os << content;
    }

    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** A small journaled sweep: the edge CNN on three systems. */
struct JournalSeeds
{
    std::string header;  ///< the segment's meta file
    std::string records; ///< its records file, one line per point
    std::uint64_t points = 0;
};

JournalSeeds
recordedJournal()
{
    std::string tmpl = testing::TempDir() + "hpim-input-fuzz-XXXXXX";
    const char *dir = ::mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    const nn::Graph graph = committedGraph();
    const baseline::SystemKind systems[] = {
        baseline::SystemKind::CpuOnly, baseline::SystemKind::ProgrPimOnly,
        baseline::SystemKind::HeteroPim};

    harness::SweepOptions options;
    options.jobs = 1;
    options.journalDir = dir;
    harness::SweepRunner runner(options);
    runner.mapReports(std::size(systems), 0x6a6f75726e616cULL,
                      [&](std::size_t i, sim::Rng &) {
                          return baseline::runSystemGraph(systems[i],
                                                          graph, 1);
                      });

    JournalSeeds seeds;
    const std::string meta = harness::journalMetaPath(dir, 0);
    const std::string records = harness::journalRecordsPath(dir, 0);
    seeds.header = readFile(meta);
    seeds.records = readFile(records);
    seeds.points = std::size(systems);
    std::remove(meta.c_str());
    std::remove(records.c_str());
    ::rmdir(dir);
    return seeds;
}

/** The specs tests/test_failpoint.cpp and bench/chaos_sweep arm. */
const char *const kFailPointSpecs[] = {
    "test.after.site=after(2):eio",
    "test.every.site=every(3):enospc",
    "test.prob.site=prob(0.5,7):eio",
    "test.prob.site=prob(0.5,8):eio",
    "test.off.alpha=every(1):eio;test.off.beta=every(1):eio",
    "test.off.alpha=off",
    "test.off.beta=off",
    "test.reset.site=after(1):eio",
    "test.errno.site=every(1):enospc",
    "test.errno.site=every(1):eintr",
    "test.errno.site=every(1):fsync",
    "test.errno.site=every(1):rename",
    "test.errno.site=every(1):eio",
    "test.errno.site=every(1):alloc",
    "test.short.site=after(0):short(3)",
    "test.writeall.site=every(2):short(5)",
    "test.writeall.site=every(3):eintr",
    "test.writeall.hard=after(0):enospc",
    "test.writeall.storm=every(1):eintr",
    "test.check.site=after(0):eio",
    "test.check.site=after(0):alloc",
    "journal.append.write=after(4):enospc",
    "journal.append.fsync=after(2):fsync",
    "journal.append.write=every(6):eio",
    "journal.header.rename=after(0):rename",
    "journal.dir.fsync=after(1):fsync",
    "journal.claim.open=after(2):eio",
    "journal.append.write=after(5):alloc",
    "journal.append.write=every(4):short(7)",
    "journal.append.write=every(3):eintr;"
    "journal.append.fsync=every(5):eintr",
    "journal.append.write=prob(0.35,42):enospc",
    "serve.send=every(3):eintr;serve.recv=every(4):eintr",
    "serve.send=every(5):eio;serve.recv=every(7):short(3)",
};

/** The sites those specs name. */
const char *const kFailPointSpecSites[] = {
    "test.after.site",      "test.every.site",       "test.prob.site",
    "test.off.alpha",       "test.off.beta",         "test.reset.site",
    "test.errno.site",      "test.short.site",       "test.writeall.site",
    "test.writeall.hard",   "test.writeall.storm",   "test.check.site",
    "journal.append.write", "journal.append.fsync",  "journal.header.rename",
    "journal.dir.fsync",    "journal.claim.open",    "serve.send",
    "serve.recv",
};

} // namespace

TEST(InputFuzz, FrameStreamsSplitOrAreInvalid)
{
    // Back-to-back frames of recorded requests, mutated as one byte
    // stream: the length header and the payloads alike.
    const std::vector<std::string> payloads = recordedRequests();
    constexpr std::size_t kIterations = 3000;
    std::size_t frames = 0, invalid = 0, parsed = 0;
    for (std::size_t i = 0; i < kIterations; ++i) {
        sim::Rng rng(sim::Rng::streamSeed(kFuzzSeed, i));
        std::string stream;
        for (std::uint64_t f = 0, n = 1 + rng.below(3); f < n; ++f)
            serve::appendFrame(stream,
                               payloads[pick(rng, payloads.size())]);
        const std::string trail = fuzz::mutateSome(stream, rng);
        // A small cap sometimes, so lengths over it are exercised.
        const std::size_t cap = rng.chance(0.25)
                                    ? 64
                                    : serve::defaultMaxFrameBytes;
        const std::string context = "iteration " + std::to_string(i)
                                    + " (" + trail + ")";

        std::string_view rest = stream;
        for (;;) {
            const serve::FrameSplit split = serve::splitFrame(rest, cap);
            if (split.status == serve::FrameSplit::Status::Invalid) {
                ASSERT_GE(rest.size(), 4u) << context;
                ASSERT_TRUE(split.announced == 0 || split.announced > cap)
                    << context;
                ++invalid;
                break;
            }
            if (split.status == serve::FrameSplit::Status::NeedMore) {
                ASSERT_TRUE(rest.size() < 4
                            || rest.size() < 4u + split.announced)
                    << context;
                break;
            }
            ASSERT_GE(split.announced, 1u) << context;
            ASSERT_LE(split.announced, cap) << context;
            ASSERT_EQ(split.frameEnd, 4u + split.announced) << context;
            ASSERT_LE(split.frameEnd, rest.size()) << context;
            ASSERT_EQ(split.payload, rest.substr(4, split.announced))
                << context;
            ++frames;
            parsed += checkRequest(std::string(split.payload), context);
            rest.remove_prefix(split.frameEnd);
        }
    }
    EXPECT_GT(frames, kIterations);
    EXPECT_GT(invalid, kIterations / 20);
    EXPECT_GT(parsed, kIterations / 20);
    std::cout << "[ fuzz     ] " << frames << " frames (" << parsed
              << " valid requests), " << invalid << " invalid headers in "
              << kIterations << " streams\n";
}

TEST(InputFuzz, RequestsAreTypedOrRoundTrip)
{
    const std::vector<std::string> payloads = recordedRequests();
    constexpr std::size_t kIterations = 5000;
    std::size_t valid = 0;
    for (std::size_t i = 0; i < kIterations; ++i) {
        sim::Rng rng(sim::Rng::streamSeed(kFuzzSeed ^ 1, i));
        std::string payload = payloads[pick(rng, payloads.size())];
        const std::string trail = fuzz::mutateSome(payload, rng);
        valid += checkRequest(payload, "iteration " + std::to_string(i)
                                           + " (" + trail + ")");
    }
    EXPECT_GT(valid, kIterations / 20);
    EXPECT_LT(valid, kIterations / 2);
    std::cout << "[ fuzz     ] " << valid << " valid, "
              << kIterations - valid << " rejected of " << kIterations
              << "\n";
}

TEST(InputFuzz, JournalHeadersAreTypedOrValid)
{
    const JournalSeeds seeds = recordedJournal();
    ASSERT_FALSE(seeds.header.empty());
    ScratchFile file("meta.json");
    constexpr std::size_t kIterations = 2000;
    std::size_t valid = 0;
    for (std::size_t i = 0; i < kIterations; ++i) {
        sim::Rng rng(sim::Rng::streamSeed(kFuzzSeed ^ 2, i));
        std::string text = seeds.header;
        const std::string trail = fuzz::mutateSome(text, rng);
        file.write(text);
        try {
            const harness::SweepJournal::Header header =
                harness::readJournalHeader(file.path());
            // Another version fills in schemaVersion alone; this one
            // holds a shard assignment that makes sense.
            if (header.schemaVersion == harness::journalSchemaVersion) {
                EXPECT_GE(header.shardIndex, 1u) << "iteration " << i;
                EXPECT_LE(header.shardIndex, header.shardCount)
                    << "iteration " << i;
            }
            ++valid;
        } catch (const harness::JournalFormatError &) {
        } catch (const std::exception &e) {
            FAIL() << "iteration " << i << " (" << trail
                   << ") escaped untyped: " << e.what()
                   << "\ninput head: " << text.substr(0, 200);
        }
    }
    EXPECT_GT(valid, kIterations / 20);
    EXPECT_LT(valid, kIterations / 2);
    std::cout << "[ fuzz     ] " << valid << " valid, "
              << kIterations - valid << " rejected of " << kIterations
              << "\n";
}

TEST(InputFuzz, JournalRecordsScanToAGoodPrefix)
{
    const JournalSeeds seeds = recordedJournal();
    ASSERT_FALSE(seeds.records.empty());
    ScratchFile file("records.jsonl");
    constexpr std::size_t kIterations = 2000;
    std::size_t kept = 0, reports = 0;
    for (std::size_t i = 0; i < kIterations; ++i) {
        sim::Rng rng(sim::Rng::streamSeed(kFuzzSeed ^ 3, i));
        std::string text = seeds.records;
        const std::string trail = fuzz::mutateSome(text, rng);
        const std::string context = "iteration " + std::to_string(i)
                                    + " (" + trail + ")";
        file.write(text);

        // scanJournalRecords never throws: it keeps the records of the
        // good prefix and describes the dropped tail.
        std::vector<harness::RawRecord> records;
        std::string tail_note;
        std::size_t good_bytes = 0;
        ASSERT_TRUE(harness::scanJournalRecords(
            file.path(), seeds.points, records, &tail_note, &good_bytes))
            << context;
        std::string prefix;
        for (std::size_t r = 0; r < records.size(); ++r) {
            ASSERT_EQ(records[r].lineNo, r + 1) << context;
            ASSERT_LT(records[r].index, seeds.points) << context;
            prefix += records[r].line + "\n";
        }
        ASSERT_EQ(good_bytes, prefix.size()) << context;
        ASSERT_EQ(text.compare(0, good_bytes, prefix), 0) << context;
        ASSERT_EQ(tail_note.empty(), good_bytes == text.size())
            << context << ": " << tail_note;
        kept += records.size();

        // Replay reads each kept record's report: a typed error or a
        // report that writes back byte-stable.
        for (const harness::RawRecord &record : records) {
            try {
                const harness::json::Value root =
                    harness::json::parse(record.line);
                const std::string once = harness::jsonString(
                    harness::reportFromJson(root.at("report")));
                ASSERT_EQ(harness::jsonString(harness::readJson(once)),
                          once)
                    << context << " does not round-trip";
                ++reports;
            } catch (const harness::ParseError &) {
            } catch (const harness::json::Error &) {
            } catch (const std::exception &e) {
                FAIL() << context << " escaped untyped: " << e.what();
            }
        }
    }
    EXPECT_GT(kept, kIterations);
    EXPECT_GT(reports, kIterations / 2);
    std::cout << "[ fuzz     ] " << kept << " records kept, " << reports
              << " reports read in " << kIterations << " files\n";
}

TEST(InputFuzz, FailPointSpecsAreTypedOrArm)
{
    // Register the sites no code linked into this binary declares, so
    // every seed arms as recorded.
    const std::vector<std::string> linked = harness::failPointSites();
    std::vector<std::unique_ptr<harness::FailPoint>> local;
    for (const char *site : kFailPointSpecSites) {
        if (!std::binary_search(linked.begin(), linked.end(), site))
            local.push_back(std::make_unique<harness::FailPoint>(site));
    }
    for (const char *spec : kFailPointSpecs) {
        ASSERT_NO_THROW(harness::configureFailPoints(spec)) << spec;
        harness::clearFailPoints();
    }

    constexpr std::size_t kIterations = 5000;
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < kIterations; ++i) {
        sim::Rng rng(sim::Rng::streamSeed(kFuzzSeed ^ 4, i));
        std::string spec =
            kFailPointSpecs[pick(rng, std::size(kFailPointSpecs))];
        const std::string trail = fuzz::mutateSome(spec, rng);
        const std::string context = "iteration " + std::to_string(i)
                                    + " (" + trail + ")\ninput head: "
                                    + spec.substr(0, 200);
        try {
            harness::configureFailPoints(spec);
            ++accepted;
            harness::clearFailPoints();
        } catch (const harness::FailPointError &) {
            // A rejected spec arms nothing, not even once a later
            // configure recounts the armed sites.
            harness::configureFailPoints("");
            if (harness::failPointsArmed()) {
                harness::clearFailPoints();
                FAIL() << context << " left a site armed";
            }
        } catch (const std::exception &e) {
            harness::clearFailPoints();
            FAIL() << context << " escaped untyped: " << e.what();
        }
    }
    EXPECT_GT(accepted, kIterations / 20);
    EXPECT_LT(accepted, kIterations / 2);
    std::cout << "[ fuzz     ] " << accepted << " accepted, "
              << kIterations - accepted << " rejected of " << kIterations
              << "\n";
}
