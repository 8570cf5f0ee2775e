/**
 * @file
 * Shard-torture tests for distributed sweeps (docs/SWEEP_ENGINE.md,
 * "Sharded distributed sweeps"). The whole feature's contract is
 * "distributed execution is indistinguishable from sequential
 * execution", so the suite leans on byte comparison: fuzzed grids
 * swept across shard counts {1,2,3,8} -- sequentially, concurrently,
 * and with a SIGKILLed shard whose slice siblings must steal -- are
 * merged with mergeShardJournals() and compared byte-for-byte against
 * the unsharded single-process journal. Alongside: claim-race
 * arbitration (exactly one owner, TSan-checked in CI), the failure
 * footer across shards, every merge failure mode as a typed
 * ShardMergeError naming the offending file, and --shard flag
 * parsing.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/journal.hh"
#include "harness/shard_merge.hh"
#include "harness/sweep.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "temp_dirs.hh"

using namespace hpim;
using namespace hpim::harness;

namespace {

/** Deterministic synthetic report: a function of (i, rng) only. */
rt::ExecutionReport
makePoint(std::size_t i, sim::Rng &rng)
{
    rt::ExecutionReport r;
    r.configName = "synthetic";
    r.workloadName = "point-" + std::to_string(i);
    r.stepsSimulated = static_cast<std::uint32_t>(i + 1);
    r.stepSec = rng.uniform();
    r.opSec = rng.uniform();
    r.energyPerStepJ = rng.uniform(1.0, 10.0);
    r.retries = rng.below(100);
    r.opsByPlacement[rt::PlacedOn::Cpu] = rng.below(1000);
    return r;
}

using test::tempDir;

std::string
tempJournalDir()
{
    return tempDir("shard") + "/journal";
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(is)) << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

SweepOptions
shardOptions(const std::string &dir, std::uint32_t shard_index = 1,
             std::uint32_t shard_count = 1, bool steal = true,
             std::uint32_t jobs = 1)
{
    SweepOptions options;
    options.jobs = jobs;
    options.journalDir = dir;
    options.shardIndex = shard_index;
    options.shardCount = shard_count;
    options.workSteal = steal;
    return options;
}

/** Run one shard of the grid; @return its stats. */
SweepStats
runShard(const SweepOptions &options, std::size_t points,
         std::uint64_t grid_hash,
         const SweepRunner::ReportFn &fn = makePoint)
{
    SweepRunner runner(options);
    runner.mapReports(points, grid_hash, fn);
    return runner.stats();
}

/** Unsharded --jobs 1 reference journal for the grid. */
std::string
referenceJournal(std::size_t points, std::uint64_t grid_hash,
                 const SweepRunner::ReportFn &fn = makePoint)
{
    std::string dir = tempJournalDir();
    runShard(shardOptions(dir), points, grid_hash, fn);
    return dir;
}

/**
 * Merge @p dir and compare every segment file byte-for-byte against
 * the unsharded reference journal @p ref_dir.
 */
void
expectMergeMatchesReference(const std::string &dir,
                            const std::string &ref_dir,
                            std::uint32_t segment = 0)
{
    std::string out = tempDir("merged");
    writeMergedJournal(out, mergeShardJournals(dir));
    EXPECT_EQ(readFile(journalRecordsPath(out, segment)),
              readFile(journalRecordsPath(ref_dir, segment)));
    EXPECT_EQ(readFile(journalMetaPath(out, segment)),
              readFile(journalMetaPath(ref_dir, segment)));
}

/** Replicates hpim_merge's error path for exit-code death tests. */
[[noreturn]] void
mergeOrDie(const std::string &dir)
{
    try {
        mergeShardJournals(dir);
    } catch (const ShardMergeError &e) {
        fatal(e.what());
    }
    std::exit(0);
}

/** A ready-made 2-shard directory for the corruption tests. */
std::string
twoShardJournal(std::size_t points = 8,
                std::uint64_t grid_hash = 0x5eedULL)
{
    std::string dir = tempJournalDir();
    runShard(shardOptions(dir, 1, 2, /*steal=*/false), points,
             grid_hash);
    runShard(shardOptions(dir, 2, 2, /*steal=*/false), points,
             grid_hash);
    return dir;
}

} // namespace

TEST(ShardSweep, OwnerPartitionsEveryGridEvenly)
{
    for (std::uint32_t shards : {1u, 2u, 3u, 8u}) {
        std::vector<std::size_t> per_shard(shards + 1, 0);
        for (std::size_t i = 0; i < 200; ++i) {
            std::uint32_t owner = journalShardOwner(i, shards);
            ASSERT_GE(owner, 1u);
            ASSERT_LE(owner, shards);
            ++per_shard[owner];
        }
        for (std::uint32_t s = 1; s <= shards; ++s)
            EXPECT_NEAR(static_cast<double>(per_shard[s]),
                        200.0 / shards, 1.0);
    }
}

TEST(ShardSweep, FuzzedGridsMergeByteIdenticalAcrossShardCounts)
{
    // Property fuzz: random grid sizes, every shard count, shards run
    // sequentially without stealing (pure slice partition). The
    // merged journal must match the unsharded --jobs 1 journal
    // byte-for-byte, meta file included.
    sim::Rng fuzz(0xf022);
    for (int round = 0; round < 4; ++round) {
        const std::size_t points = 1 + fuzz.below(33);
        const std::uint64_t grid_hash = fuzz.next();
        const std::string ref = referenceJournal(points, grid_hash);
        for (std::uint32_t shards : {1u, 2u, 3u, 8u}) {
            std::string dir = tempJournalDir();
            std::size_t slices = 0;
            for (std::uint32_t s = 1; s <= shards; ++s) {
                SweepStats stats = runShard(
                    shardOptions(dir, s, shards, /*steal=*/false),
                    points, grid_hash);
                EXPECT_EQ(stats.stolenPoints, 0u);
                slices += stats.slicePoints;
            }
            // The slices partition the grid: no point shared, none
            // dropped.
            EXPECT_EQ(slices, points)
                << points << " points over " << shards << " shards";
            expectMergeMatchesReference(dir, ref);
        }
    }
}

TEST(ShardSweep, SequentialStealingShardsConvergeByteIdentical)
{
    // With stealing on, the first shard to run drains the entire
    // grid; late shards find every point recorded and add nothing.
    const std::size_t points = 17;
    const std::uint64_t grid_hash = 0xabcdefULL;
    const std::string ref = referenceJournal(points, grid_hash);
    std::string dir = tempJournalDir();
    SweepStats first =
        runShard(shardOptions(dir, 2, 3), points, grid_hash);
    EXPECT_EQ(first.slicePoints + first.stolenPoints, points);
    for (std::uint32_t s : {1u, 3u}) {
        SweepStats late =
            runShard(shardOptions(dir, s, 3), points, grid_hash);
        EXPECT_EQ(late.stolenPoints, 0u);
    }
    expectMergeMatchesReference(dir, ref);
}

TEST(ShardSweep, ConcurrentShardsMergeByteIdentical)
{
    // All shards at once (threads; flock arbitration is per open file
    // description, so in-process concurrency exercises the same claim
    // path as separate hosts), each with a 2-worker pool.
    const std::size_t points = 29;
    const std::uint64_t grid_hash = 0xc0ffeeULL;
    const std::string ref = referenceJournal(points, grid_hash);
    for (std::uint32_t shards : {2u, 3u, 8u}) {
        std::string dir = tempJournalDir();
        std::vector<std::thread> threads;
        for (std::uint32_t s = 1; s <= shards; ++s) {
            threads.emplace_back([&, s] {
                runShard(shardOptions(dir, s, shards, /*steal=*/true,
                                      /*jobs=*/2),
                         points, grid_hash);
            });
        }
        for (auto &thread : threads)
            thread.join();
        expectMergeMatchesReference(dir, ref);
    }
}

TEST(ShardSweep, KilledShardsSliceIsStolenAndMergesByteIdentical)
{
    // The torture headline: SIGKILL a shard mid-slice, let the
    // siblings steal the remainder, and demand the merged journal
    // still matches the unsharded run byte-for-byte -- with the
    // restarted victim finding nothing left to do (no double-counted
    // points).
    const std::size_t points = 10;
    const std::uint64_t grid_hash = 0xdeadULL;
    const std::string ref = referenceJournal(points, grid_hash);
    std::string dir = tempJournalDir();

    // Shard 1 owns {0,3,6,9}; jobs=1 simulates them in order. Killing
    // inside point 6 leaves 0 and 3 journaled, 6 and 9 stranded, and
    // point 6's claim file stale on disk.
    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        runShard(shardOptions(dir, 1, 3), points, grid_hash,
                 [](std::size_t i, sim::Rng &rng) {
                     if (i == 6)
                         raise(SIGKILL);
                     return makePoint(i, rng);
                 });
        _exit(0); // not reached
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Shard 2 sweeps its slice {1,4,7} and then steals everything
    // unfinished: the victim's {6,9} plus all of not-yet-started
    // shard 3's {2,5,8}. Shard 3 finds a complete grid.
    SweepStats s2 = runShard(shardOptions(dir, 2, 3), points,
                             grid_hash);
    SweepStats s3 = runShard(shardOptions(dir, 3, 3), points,
                             grid_hash);
    EXPECT_EQ(s2.stolenPoints, 5u);
    EXPECT_EQ(s3.stolenPoints, 0u);

    // The victim restarts: resumes its two journaled points, steals
    // nothing, appends nothing.
    const std::string victim_records =
        journalRecordsPath(dir, 0, 1, 3);
    const std::string before = readFile(victim_records);
    SweepStats s1 = runShard(shardOptions(dir, 1, 3), points,
                             grid_hash);
    EXPECT_EQ(s1.resumedPoints, 2u);
    EXPECT_EQ(s1.stolenPoints, 0u);
    EXPECT_EQ(readFile(victim_records), before);

    expectMergeMatchesReference(dir, ref);
}

TEST(ShardSweep, MergeSucceedsWhenDeadShardNeverRestarts)
{
    // A host that dies and never comes back must not block the merge
    // as long as siblings stole its whole slice.
    const std::size_t points = 9;
    const std::uint64_t grid_hash = 0xfadeULL;
    const std::string ref = referenceJournal(points, grid_hash);
    std::string dir = tempJournalDir();
    runShard(shardOptions(dir, 2, 3), points, grid_hash);
    runShard(shardOptions(dir, 3, 3), points, grid_hash);
    // Shard 1 never ran: no sweep-0.shard-1of3.* files at all.
    EXPECT_FALSE(
        std::ifstream(journalMetaPath(dir, 0, 1, 3)).good());
    expectMergeMatchesReference(dir, ref);
}

TEST(ShardSweep, ClaimRaceHasExactlyOneWinner)
{
    // The atomic-claim contract work-stealing rests on: many racers,
    // one owner. Run under TSan in CI.
    const std::string dir = tempJournalDir();
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    constexpr int kRacers = 8;
    for (int round = 0; round < 20; ++round) {
        std::vector<std::optional<ShardClaim>> claims(kRacers);
        std::vector<std::thread> threads;
        for (int t = 0; t < kRacers; ++t) {
            threads.emplace_back([&, t] {
                claims[t] = ShardClaim::tryAcquire(
                    dir, 0, 7, static_cast<std::uint32_t>(t + 1));
            });
        }
        for (auto &thread : threads)
            thread.join();
        int winners = 0;
        for (const auto &claim : claims)
            winners += claim.has_value();
        ASSERT_EQ(winners, 1) << "round " << round;
        // Releasing the claim (destructor) frees the point for the
        // next round and removes the claim file.
        claims.clear();
        EXPECT_FALSE(
            std::ifstream(journalClaimPath(dir, 0, 7)).good());
    }
}

TEST(ShardSweep, FailureFooterUnionMatchesUnshardedRun)
{
    // Failed points are never journaled; each shard reports its own
    // attempts in stats().failures. Without stealing the footers
    // partition exactly; with stealing every shard that attempted a
    // bad point reports it, so the union still equals the unsharded
    // footer.
    const std::size_t points = 12;
    const std::uint64_t grid_hash = 0xbad5eedULL;
    auto flaky = [](std::size_t i, sim::Rng &rng) {
        if (i % 5 == 3)
            throw std::runtime_error("point " + std::to_string(i)
                                     + " diverged");
        return makePoint(i, rng);
    };

    SweepOptions plain;
    plain.jobs = 1;
    SweepRunner reference(plain);
    reference.mapReports(points, grid_hash, flaky);
    std::set<std::pair<std::size_t, std::string>> expect;
    for (const PointFailure &f : reference.stats().failures)
        expect.insert({f.index, f.what});
    ASSERT_EQ(expect.size(), 2u); // points 3 and 8

    for (bool steal : {false, true}) {
        std::string dir = tempJournalDir();
        std::set<std::pair<std::size_t, std::string>> seen;
        std::size_t reported = 0;
        for (std::uint32_t s = 1; s <= 3; ++s) {
            SweepStats stats =
                runShard(shardOptions(dir, s, 3, steal), points,
                         grid_hash, flaky);
            for (const PointFailure &f : stats.failures)
                seen.insert({f.index, f.what});
            reported += stats.failures.size();
        }
        EXPECT_EQ(seen, expect) << "steal=" << steal;
        if (!steal) { // exact partition: no point failed twice
            EXPECT_EQ(reported, expect.size());
        }
    }
}

// --- merge failure modes -------------------------------------------
//
// Every corruption is a typed ShardMergeError whose .file names the
// offending shard file; the death tests assert the hpim_merge exit
// path (fatal, exit code 1) carries the same diagnostic.

TEST(ShardMergeErrors, MismatchedGridHashHeaderIsRejected)
{
    std::string dir = twoShardJournal();
    SweepJournal::Header header =
        readJournalHeader(journalMetaPath(dir, 0, 2, 2));
    header.gridHash ^= 1;
    writeJournalHeaderFile(journalMetaPath(dir, 0, 2, 2), header);
    try {
        mergeShardJournals(dir);
        FAIL() << "merge accepted mismatched grid hashes";
    } catch (const ShardMergeError &e) {
        EXPECT_EQ(e.file, journalMetaPath(dir, 0, 2, 2));
        EXPECT_EQ(e.field, "grid_hash");
        EXPECT_NE(std::string(e.what()).find("disagree"),
                  std::string::npos);
    }
}

TEST(ShardMergeErrors, MismatchedSeedHeaderIsRejected)
{
    std::string dir = twoShardJournal();
    SweepJournal::Header header =
        readJournalHeader(journalMetaPath(dir, 0, 2, 2));
    header.baseSeed += 1;
    writeJournalHeaderFile(journalMetaPath(dir, 0, 2, 2), header);
    try {
        mergeShardJournals(dir);
        FAIL() << "merge accepted mismatched seeds";
    } catch (const ShardMergeError &e) {
        EXPECT_EQ(e.field, "base_seed");
        EXPECT_EQ(e.file, journalMetaPath(dir, 0, 2, 2));
    }
}

TEST(ShardMergeErrors, UnknownSchemaVersionIsRejected)
{
    std::string dir = twoShardJournal();
    {
        std::ofstream os(journalMetaPath(dir, 0, 1, 2),
                         std::ios::trunc);
        os << "{\"schema_version\":1,\"base_seed\":0}\n";
    }
    try {
        mergeShardJournals(dir);
        FAIL() << "merge accepted a v1 journal";
    } catch (const ShardMergeError &e) {
        EXPECT_EQ(e.field, "schema_version");
        EXPECT_EQ(e.file, journalMetaPath(dir, 0, 1, 2));
    }
}

TEST(ShardMergeErrors, MissingPointRangeIsRejectedNamingOwner)
{
    // Shard 2 never ran and nobody stole: every point of its slice is
    // a gap, attributed to shard 2's records file.
    const std::size_t points = 8;
    std::string dir = tempJournalDir();
    runShard(shardOptions(dir, 1, 2, /*steal=*/false), points,
             0x5eedULL);
    try {
        mergeShardJournals(dir);
        FAIL() << "merge accepted a half-finished sweep";
    } catch (const ShardMergeError &e) {
        EXPECT_EQ(e.file, journalRecordsPath(dir, 0, 2, 2));
        EXPECT_NE(std::string(e.what()).find("grid point 1"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("shard 2/2"),
                  std::string::npos);
    }
}

TEST(ShardMergeErrors, ConflictingDuplicateRecordIsRejected)
{
    std::string dir = twoShardJournal();
    // Shard 2 re-records point 0 (owned by shard 1) with different
    // bytes: an overlap that is corruption, not redundancy.
    {
        std::ofstream os(journalRecordsPath(dir, 0, 2, 2),
                         std::ios::app);
        os << "{\"index\":0,\"point_hash\":"
           << journalPointHash(0x5eedULL, 0) << ",\"report\":{}}\n";
    }
    try {
        mergeShardJournals(dir);
        FAIL() << "merge accepted conflicting duplicates";
    } catch (const ShardMergeError &e) {
        EXPECT_EQ(e.file, journalRecordsPath(dir, 0, 2, 2));
        EXPECT_NE(std::string(e.what()).find("conflicting"),
                  std::string::npos);
    }
}

TEST(ShardMergeErrors, IdenticalDuplicateRecordIsTolerated)
{
    // Cross-host redundancy: a point journaled by its owner and again
    // by a stealing sibling produces byte-identical lines. The merge
    // keeps one.
    const std::size_t points = 8;
    const std::uint64_t grid_hash = 0x5eedULL;
    const std::string ref = referenceJournal(points, grid_hash);
    std::string dir = twoShardJournal(points, grid_hash);
    std::string first_line;
    {
        std::ifstream is(journalRecordsPath(dir, 0, 1, 2));
        ASSERT_TRUE(std::getline(is, first_line));
    }
    {
        std::ofstream os(journalRecordsPath(dir, 0, 2, 2),
                         std::ios::app);
        os << first_line << '\n';
    }
    expectMergeMatchesReference(dir, ref);
}

TEST(ShardMergeErrors, TornClaimRecordIsRejected)
{
    std::string dir = twoShardJournal();
    {
        std::ofstream os(journalClaimPath(dir, 0, 3));
        os << "{\"index\":3,\"sh"; // torn mid-write
    }
    try {
        mergeShardJournals(dir);
        FAIL() << "merge accepted a torn claim record";
    } catch (const ShardMergeError &e) {
        EXPECT_EQ(e.file, journalClaimPath(dir, 0, 3));
        EXPECT_NE(std::string(e.what()).find("torn claim"),
                  std::string::npos);
    }
}

TEST(ShardMergeErrors, StaleButCompleteClaimIsTolerated)
{
    // What a SIGKILLed owner actually leaves behind: a complete claim
    // record whose flock died with the process.
    const std::size_t points = 8;
    const std::uint64_t grid_hash = 0x5eedULL;
    const std::string ref = referenceJournal(points, grid_hash);
    std::string dir = twoShardJournal(points, grid_hash);
    {
        std::ofstream os(journalClaimPath(dir, 0, 3));
        os << "{\"index\":3,\"shard\":2,\"pid\":12345}\n";
    }
    expectMergeMatchesReference(dir, ref);
}

TEST(ShardMergeErrors, MixedShardLayoutsAreRejected)
{
    const std::size_t points = 8;
    const std::uint64_t grid_hash = 0x5eedULL;
    std::string dir = twoShardJournal(points, grid_hash);
    runShard(shardOptions(dir), points, grid_hash); // 1/1 on top
    EXPECT_THROW(mergeShardJournals(dir), ShardMergeError);
}

TEST(ShardMergeErrors, RenamedShardFileIsRejected)
{
    // File name and header must agree on the shard assignment;
    // renaming a journal cannot reassign its slice.
    std::string dir = twoShardJournal();
    ASSERT_EQ(std::rename(journalMetaPath(dir, 0, 2, 2).c_str(),
                          journalMetaPath(dir, 0, 2, 3).c_str()),
              0);
    ASSERT_EQ(
        std::rename(journalRecordsPath(dir, 0, 2, 2).c_str(),
                    journalRecordsPath(dir, 0, 2, 3).c_str()),
        0);
    try {
        mergeShardJournals(dir);
        FAIL() << "merge accepted a renamed shard journal";
    } catch (const ShardMergeError &e) {
        // Either the layout mix (2-way vs 3-way) or the name/header
        // disagreement fires first; both name the renamed file.
        EXPECT_EQ(e.file, journalMetaPath(dir, 0, 2, 3));
    }
}

TEST(ShardMergeErrors, ForeignGridRecordIsRejected)
{
    std::string dir = twoShardJournal();
    {
        std::ofstream os(journalRecordsPath(dir, 0, 2, 2),
                         std::ios::app);
        os << "{\"index\":2,\"point_hash\":42,\"report\":{}}\n";
    }
    try {
        mergeShardJournals(dir);
        FAIL() << "merge accepted a foreign-grid record";
    } catch (const ShardMergeError &e) {
        EXPECT_EQ(e.file, journalRecordsPath(dir, 0, 2, 2));
        EXPECT_NE(std::string(e.what()).find("different sweep grid"),
                  std::string::npos);
    }
}

TEST(ShardMergeErrors, EmptyDirectoryIsRejected)
{
    std::string dir = tempDir("empty");
    EXPECT_THROW(mergeShardJournals(dir), ShardMergeError);
    EXPECT_THROW(mergeShardJournals(dir + "/missing"),
                 ShardMergeError);
}

TEST(ShardMergeDeath, MergeToolExitsOneWithDiagnostic)
{
    // The hpim_merge exit path: ShardMergeError -> fatal -> exit 1,
    // diagnostic naming the offending file on stderr.
    std::string dir = twoShardJournal();
    SweepJournal::Header header =
        readJournalHeader(journalMetaPath(dir, 0, 2, 2));
    header.gridHash ^= 1;
    writeJournalHeaderFile(journalMetaPath(dir, 0, 2, 2), header);
    EXPECT_EXIT(mergeOrDie(dir), testing::ExitedWithCode(1),
                "shard-2of2\\.meta\\.json.*grid_hash");
}

TEST(ShardMergeDeath, GapExitsOneNamingOwningShard)
{
    std::string dir = tempJournalDir();
    runShard(shardOptions(dir, 1, 2, /*steal=*/false), 8, 0x5eedULL);
    EXPECT_EXIT(mergeOrDie(dir), testing::ExitedWithCode(1),
                "never recorded.*shard 2/2");
}

// --- --shard flag parsing ------------------------------------------

namespace {

SweepOptions
parseArgs(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::string name = "bench";
    argv.push_back(name.data());
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parseSweepArgs(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(ShardArgs, ShardFlagParsesIndexAndCount)
{
    SweepOptions options =
        parseArgs({"--shard", "2/3", "--journal", "jdir"});
    EXPECT_EQ(options.shardIndex, 2u);
    EXPECT_EQ(options.shardCount, 3u);
    EXPECT_TRUE(options.workSteal);

    options = parseArgs({"--shard=8/8", "--journal=jdir",
                         "--no-steal"});
    EXPECT_EQ(options.shardIndex, 8u);
    EXPECT_EQ(options.shardCount, 8u);
    EXPECT_FALSE(options.workSteal);
}

TEST(ShardArgs, UnshardedDefaultNeedsNoJournal)
{
    SweepOptions options = parseArgs({"--jobs", "2"});
    EXPECT_EQ(options.shardIndex, 1u);
    EXPECT_EQ(options.shardCount, 1u);
}

TEST(ShardArgsDeath, MalformedShardSpecsAreRejected)
{
    EXPECT_EXIT(parseArgs({"--shard", "3", "--journal", "j"}),
                testing::ExitedWithCode(1), "i/N");
    EXPECT_EXIT(parseArgs({"--shard", "0/3", "--journal", "j"}),
                testing::ExitedWithCode(1), "1 <= i <= N");
    EXPECT_EXIT(parseArgs({"--shard", "4/3", "--journal", "j"}),
                testing::ExitedWithCode(1), "1 <= i <= N");
    EXPECT_EXIT(parseArgs({"--shard", "2/0", "--journal", "j"}),
                testing::ExitedWithCode(1), "1 <= i <= N");
    EXPECT_EXIT(parseArgs({"--shard", "1/99999", "--journal", "j"}),
                testing::ExitedWithCode(1), "1 <= i <= N");
    EXPECT_EXIT(parseArgs({"--shard", "a/b", "--journal", "j"}),
                testing::ExitedWithCode(1), "unsigned integer");
}

TEST(SweepArgsDeath, OutOfRangeSeedIsRejected)
{
    // Past 2^64-1: a saturating parse would make it a valid-looking
    // seed.
    EXPECT_EXIT(parseArgs({"--seed", "99999999999999999999"}),
                testing::ExitedWithCode(1),
                "--seed expects an unsigned integer");
}

TEST(ShardArgsDeath, ShardWithoutJournalIsRejected)
{
    EXPECT_EXIT(parseArgs({"--shard", "2/3"}),
                testing::ExitedWithCode(1),
                "--shard requires --journal");
}

TEST(ShardArgsDeath, ShardAssignmentMismatchOnResumeIsRejected)
{
    // A process must keep its original --shard assignment when it
    // resumes; the journal header pins it.
    const std::size_t points = 6;
    std::string dir = tempJournalDir();
    runShard(shardOptions(dir, 1, 2, /*steal=*/false), points,
             0x5eedULL);
    // Same file name would not even exist for 1/3; the mismatch that
    // matters is same-name different-header, i.e. shard 1 of 2
    // reopened claiming a different count is caught by the on-disk
    // header when the layout matches. Rewrite the header to simulate
    // a stale assignment.
    SweepJournal::Header header =
        readJournalHeader(journalMetaPath(dir, 0, 1, 2));
    header.shardIndex = 2;
    writeJournalHeaderFile(journalMetaPath(dir, 0, 1, 2), header);
    EXPECT_EXIT(runShard(shardOptions(dir, 1, 2, false), points,
                         0x5eedULL),
                testing::ExitedWithCode(1),
                "original --shard assignment");
}
