/**
 * @file
 * Crash-recovery tests for the journaled sweep engine: resume after a
 * mid-record truncation (the SIGKILL case), corrupt-tail handling,
 * header mismatch rejection, and bit-identical resumed results.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/failpoint.hh"
#include "harness/journal.hh"
#include "harness/report_io.hh"
#include "harness/sweep.hh"
#include "temp_dirs.hh"

using namespace hpim;
using namespace hpim::harness;

namespace {

constexpr std::size_t kPoints = 7;
constexpr std::uint64_t kGridHash = 0x1234abcd5678ef00ULL;

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
    r.dataMovementSec = rng.uniform();
    r.energyPerStepJ = rng.uniform(1.0, 10.0);
    r.retries = rng.below(100);
    r.opsByPlacement[rt::PlacedOn::Cpu] = rng.below(1000);
    r.capacityTimeline.push_back(
        {rng.uniform(), static_cast<std::uint32_t>(rng.below(512))});
    return r;
}

/** Run the reference grid; @return one JSON string per point. */
std::vector<std::string>
runSweep(const SweepOptions &options, std::size_t *resumed = nullptr)
{
    SweepRunner runner(options);
    auto reports = runner.mapReports(kPoints, kGridHash, makePoint);
    if (resumed)
        *resumed = runner.stats().resumedPoints;
    std::vector<std::string> out;
    out.reserve(reports.size());
    for (const auto &report : reports)
        out.push_back(jsonString(report));
    return out;
}

/** Fresh journal dir one level below a mkdtemp dir, so the journal
 *  code also exercises its own directory creation. */
std::string
tempJournalDir()
{
    return test::tempDir("journal") + "/journal";
}

std::string
recordsPath(const std::string &dir, std::uint32_t segment = 0)
{
    return dir + "/sweep-" + std::to_string(segment)
           + ".records.jsonl";
}

long
fileSize(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<long>(st.st_size)
               : -1;
}

SweepOptions
journaledOptions(const std::string &dir, std::uint32_t jobs = 1,
                 std::uint64_t seed = sim::defaultSeed)
{
    SweepOptions options;
    options.jobs = jobs;
    options.baseSeed = seed;
    options.journalDir = dir;
    return options;
}

} // namespace

TEST(Checkpoint, JournaledRunMatchesPlainRunByteForByte)
{
    SweepOptions plain;
    plain.jobs = 1;
    auto reference = runSweep(plain);

    auto journaled = runSweep(journaledOptions(tempJournalDir(), 2));
    EXPECT_EQ(journaled, reference);
}

TEST(Checkpoint, SecondRunResumesEveryPointWithoutResimulating)
{
    auto dir = tempJournalDir();
    auto first = runSweep(journaledOptions(dir));

    std::size_t resumed = 0;
    auto second = runSweep(journaledOptions(dir), &resumed);
    EXPECT_EQ(resumed, kPoints);
    EXPECT_EQ(second, first);
}

TEST(Checkpoint, TruncatedTailRecordIsRecomputedBitIdentical)
{
    // The SIGKILL-mid-append crash: the journal ends in a torn
    // record. Resume must drop the tail, re-simulate only what is
    // missing, and still match an uninterrupted --jobs 1 run.
    SweepOptions plain;
    plain.jobs = 1;
    auto reference = runSweep(plain);

    auto dir = tempJournalDir();
    runSweep(journaledOptions(dir)); // jobs=1: appends in index order
    const std::string records = recordsPath(dir);
    long size = fileSize(records);
    ASSERT_GT(size, 20);
    ASSERT_EQ(truncate(records.c_str(), size - 17), 0);

    std::size_t resumed = 0;
    auto recovered = runSweep(journaledOptions(dir), &resumed);
    EXPECT_EQ(resumed, kPoints - 1);
    EXPECT_EQ(recovered, reference);
}

TEST(Checkpoint, MidFileTruncationKeepsOnlyTheGoodPrefix)
{
    auto dir = tempJournalDir();
    auto first = runSweep(journaledOptions(dir));
    const std::string records = recordsPath(dir);
    ASSERT_EQ(truncate(records.c_str(), fileSize(records) / 2), 0);

    std::size_t resumed = 0;
    auto recovered = runSweep(journaledOptions(dir), &resumed);
    EXPECT_GT(resumed, 0u);
    EXPECT_LT(resumed, kPoints);
    EXPECT_EQ(recovered, first);
}

TEST(Checkpoint, CorruptTailRecordIsSkipped)
{
    auto dir = tempJournalDir();
    auto first = runSweep(journaledOptions(dir));
    {
        // A complete but unparsable line after the good records.
        std::ofstream os(recordsPath(dir), std::ios::app);
        os << "{\"index\":0,\"point_hash\":0,\"report\":{}}\n";
    }
    std::size_t resumed = 0;
    auto recovered = runSweep(journaledOptions(dir), &resumed);
    EXPECT_EQ(resumed, kPoints);
    EXPECT_EQ(recovered, first);
}

TEST(Checkpoint, ResumedJournalAcceptsFurtherAppends)
{
    // Resume after truncation, then resume again: the second resume
    // must see a fully repaired journal.
    auto dir = tempJournalDir();
    runSweep(journaledOptions(dir));
    const std::string records = recordsPath(dir);
    ASSERT_EQ(truncate(records.c_str(), fileSize(records) / 2), 0);
    runSweep(journaledOptions(dir));

    std::size_t resumed = 0;
    runSweep(journaledOptions(dir), &resumed);
    EXPECT_EQ(resumed, kPoints);
}

TEST(Checkpoint, MultiSegmentBinariesResumeEachSweep)
{
    // fault_sweep-style binaries run several sweeps per process; each
    // gets its own journal segment, replayed in call order.
    auto dir = tempJournalDir();
    auto options = journaledOptions(dir);
    std::vector<std::string> first_a, first_b;
    {
        SweepRunner runner(options);
        for (const auto &r : runner.mapReports(3, 11, makePoint))
            first_a.push_back(jsonString(r));
        for (const auto &r : runner.mapReports(4, 22, makePoint))
            first_b.push_back(jsonString(r));
    }
    SweepRunner runner(options);
    std::vector<std::string> second_a, second_b;
    for (const auto &r : runner.mapReports(3, 11, makePoint))
        second_a.push_back(jsonString(r));
    for (const auto &r : runner.mapReports(4, 22, makePoint))
        second_b.push_back(jsonString(r));
    EXPECT_EQ(runner.stats().resumedPoints, 7u);
    EXPECT_EQ(second_a, first_a);
    EXPECT_EQ(second_b, first_b);
}

TEST(Checkpoint, GridHashCoversEveryPointParameter)
{
    std::vector<ExperimentPoint> grid(2);
    std::uint64_t base = gridHash(grid);
    auto mutated = [&](auto change) {
        std::vector<ExperimentPoint> g(2);
        change(g);
        return gridHash(g);
    };
    EXPECT_NE(mutated([](auto &g) {
                  g[1].model = nn::ModelId::Vgg19;
              }),
              base);
    EXPECT_NE(mutated([](auto &g) { g[0].steps = 5; }), base);
    EXPECT_NE(mutated([](auto &g) { g[0].freqScale = 2.0; }), base);
    EXPECT_NE(mutated([](auto &g) { g[1].progrPims = 4; }), base);
    EXPECT_NE(mutated([](auto &g) { g[1].batch = 64; }), base);
    EXPECT_NE(gridHash(std::vector<ExperimentPoint>(3)), base);
}

TEST(CheckpointDeath, SeedMismatchIsRejected)
{
    auto dir = tempJournalDir();
    runSweep(journaledOptions(dir, 1, 1111));
    EXPECT_EXIT(runSweep(journaledOptions(dir, 1, 2222)),
                testing::ExitedWithCode(1), "--seed 1111");
}

TEST(CheckpointDeath, GridMismatchIsRejected)
{
    auto dir = tempJournalDir();
    runSweep(journaledOptions(dir));
    SweepRunner runner(journaledOptions(dir));
    EXPECT_EXIT(runner.mapReports(kPoints, kGridHash + 1, makePoint),
                testing::ExitedWithCode(1), "different sweep grid");
}

TEST(CheckpointDeath, GridMismatchNamesExpectedAndFoundHashes)
{
    // Multi-host misconfiguration (two hosts sweeping different
    // grids into one directory) must be diagnosable from one log
    // line: the fatal message carries both hash values.
    auto dir = tempJournalDir();
    runSweep(journaledOptions(dir));
    SweepRunner runner(journaledOptions(dir));
    const std::string both = "expects grid hash "
                             + std::to_string(kGridHash + 1)
                             + ".*found grid hash "
                             + std::to_string(kGridHash);
    EXPECT_EXIT(runner.mapReports(kPoints, kGridHash + 1, makePoint),
                testing::ExitedWithCode(1), both);
}

TEST(CheckpointDeath, PointCountMismatchIsRejected)
{
    auto dir = tempJournalDir();
    runSweep(journaledOptions(dir));
    SweepRunner runner(journaledOptions(dir));
    EXPECT_EXIT(runner.mapReports(kPoints + 2, kGridHash, makePoint),
                testing::ExitedWithCode(1), "different sweep grid");
}

TEST(CheckpointDeath, InterruptedJournaledSweepExitsResumable)
{
    // A journaled runner installs SIGINT/SIGTERM handlers; a pending
    // interrupt makes the sweep drain, flush and leave with the
    // distinct resumable exit code instead of a plain crash.
    static_assert(resumableExitCode == 75); // BSD EX_TEMPFAIL
    auto dir = tempJournalDir();
    EXPECT_EXIT(
        {
            SweepRunner runner(journaledOptions(dir));
            std::raise(SIGTERM);
            runner.mapReports(kPoints, kGridHash, makePoint);
        },
        testing::ExitedWithCode(resumableExitCode),
        "Rerun the same command to resume");

    // The journal the interrupted child left behind is valid: a
    // fresh run resumes from it and completes the grid.
    SweepOptions plain;
    plain.jobs = 1;
    EXPECT_EQ(runSweep(journaledOptions(dir)), runSweep(plain));
}

TEST(CheckpointDeath, CorruptHeaderIsRejected)
{
    auto dir = tempJournalDir();
    runSweep(journaledOptions(dir));
    {
        std::ofstream os(dir + "/sweep-0.meta.json",
                         std::ios::trunc);
        os << "{\"schema_version\":1,\"base_se";
    }
    EXPECT_EXIT(runSweep(journaledOptions(dir)),
                testing::ExitedWithCode(1), "corrupt");
}

TEST(CheckpointFailPoints, InjectedDiskFullSealsAndExitsResumable)
{
    // A durable journal failure mid-sweep (disk full on the 4th
    // append) must seal the log at the last good record and leave
    // with the resumable exit code and the typed diagnostic --
    // exactly the crash contract docs/RESILIENCE.md promises.
    auto dir = tempJournalDir();
    EXPECT_EXIT(
        {
            configureFailPoints(
                "journal.append.write=after(3):enospc");
            runSweep(journaledOptions(dir));
        },
        testing::ExitedWithCode(resumableExitCode),
        "journal IO failure.*No space left");

    // The sealed journal is a valid prefix: a clean rerun resumes
    // the three durable points and reproduces the reference grid
    // byte for byte.
    SweepOptions plain;
    plain.jobs = 1;
    std::size_t resumed = 0;
    EXPECT_EQ(runSweep(journaledOptions(dir), &resumed),
              runSweep(plain));
    EXPECT_EQ(resumed, 3u);
}

TEST(CheckpointFailPoints, HeaderPublishFailureIsResumable)
{
    // rename() of the header tmp file fails: the journal never comes
    // into existence, the sweep leaves resumably, and a rerun starts
    // from scratch without tripping over the unlinked tmp file.
    auto dir = tempJournalDir();
    EXPECT_EXIT(
        {
            configureFailPoints(
                "journal.header.rename=after(0):rename");
            runSweep(journaledOptions(dir));
        },
        testing::ExitedWithCode(resumableExitCode),
        "journal IO failure");

    SweepOptions plain;
    plain.jobs = 1;
    EXPECT_EQ(runSweep(journaledOptions(dir)), runSweep(plain));
}

TEST(CheckpointFailPoints, TransientFaultsAreAbsorbedByteIdentical)
{
    // EINTR storms and repeating short writes are retried inside
    // fpWriteAll: the journaled run completes normally and its
    // records match the uninjected reference byte for byte.
    SweepOptions plain;
    plain.jobs = 1;
    auto reference = runSweep(plain);

    auto dir = tempJournalDir();
    configureFailPoints(
        "journal.append.write=every(2):short(5);"
        "journal.append.fsync=every(3):eintr");
    auto injected = runSweep(journaledOptions(dir));
    clearFailPoints();
    EXPECT_EQ(injected, reference);

    // And the journal those torn writes produced is fully durable.
    std::size_t resumed = 0;
    EXPECT_EQ(runSweep(journaledOptions(dir), &resumed), reference);
    EXPECT_EQ(resumed, kPoints);
}
