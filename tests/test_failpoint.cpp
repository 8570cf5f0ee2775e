/**
 * @file
 * harness::FailPoint -- deterministic host-IO fault injection
 * (docs/RESILIENCE.md, "Host-IO fault injection").
 *
 * Covered: the spec grammar (valid programs, every malformed-token
 * diagnostic, parse-all-before-arm atomicity), trigger semantics
 * (after/every/prob determinism, off, reconfiguration resetting the
 * activation counter), the zero-cost-when-off contract, site
 * registration lifetime, and the syscall wrappers (errno mapping,
 * real short writes, fpWriteAll's bounded transient retry, fpCheck's
 * typed IoError).
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/failpoint.hh"
#include "harness/journal.hh"
#include "harness/report_io.hh"
#include "harness/shard_merge.hh"
#include "harness/sweep.hh"

namespace {

using namespace hpim::harness;

/** Every test starts and ends with nothing armed. */
class FailPointTest : public ::testing::Test
{
  protected:
    void SetUp() override { clearFailPoints(); }
    void TearDown() override { clearFailPoints(); }
};

/** A scratch file the write wrappers can really write to. */
struct ScratchFile
{
    ScratchFile()
    {
        path = ::testing::TempDir() + "fp_scratch_XXXXXX";
        fd = ::mkstemp(path.data());
        EXPECT_GE(fd, 0);
    }

    ~ScratchFile()
    {
        if (fd >= 0)
            ::close(fd);
        std::remove(path.c_str());
    }

    std::string contents() const
    {
        std::string text(4096, '\0');
        ssize_t n = ::pread(fd, text.data(), text.size(), 0);
        text.resize(n > 0 ? static_cast<std::size_t>(n) : 0);
        return text;
    }

    std::string path;
    int fd = -1;
};

// ------------------------------------------------------------ registration

TEST_F(FailPointTest, SitesRegisterForTheirLifetime)
{
    const std::string name = "test.registration.site";
    {
        FailPoint site(name.c_str());
        std::vector<std::string> sites = failPointSites();
        EXPECT_NE(std::find(sites.begin(), sites.end(), name),
                  sites.end());
    }
    std::vector<std::string> sites = failPointSites();
    EXPECT_EQ(std::find(sites.begin(), sites.end(), name),
              sites.end());
}

TEST_F(FailPointTest, ProductionSitesAreRegistered)
{
    // Static-library sites only exist once their translation unit is
    // linked in; odr-use one symbol from each IO-owning file so the
    // harness-side site catalog is really present in this binary.
    // (The serve.* sites are checked in test_serve, which links the
    // server.)
    (void)journalMetaPath("dir", 0);            // journal.cc
    std::ostringstream header;
    writeCsvHeader(header);                     // report_io.cc
    SweepOptions options = parseSweepArgs(0, nullptr); // sweep.cc
    (void)options;
    EXPECT_THROW(mergeShardJournals("/nonexistent-journal-dir"),
                 ShardMergeError);              // shard_merge.cc

    std::vector<std::string> sites = failPointSites();
    for (const char *expected :
         {"journal.append.write", "journal.append.fsync",
          "journal.header.write", "journal.header.fsync",
          "journal.header.rename", "journal.dir.fsync",
          "journal.claim.open", "merge.read", "report.write",
          "trace.export.write"}) {
        EXPECT_NE(std::find(sites.begin(), sites.end(), expected),
                  sites.end())
            << "site '" << expected << "' is not registered";
    }
}

// ------------------------------------------------------------ spec grammar

TEST_F(FailPointTest, MalformedSpecsThrowNamingTheToken)
{
    FailPoint site("test.grammar.site");
    EXPECT_THROW(configureFailPoints("no-equals-sign"),
                 FailPointError);
    EXPECT_THROW(configureFailPoints("=after(1):eio"), FailPointError);
    EXPECT_THROW(
        configureFailPoints("test.grammar.site=bogus(1):eio"),
        FailPointError);
    EXPECT_THROW(configureFailPoints("test.grammar.site=after(1)"),
                 FailPointError);
    EXPECT_THROW(
        configureFailPoints("test.grammar.site=after(1):bogus"),
        FailPointError);
    EXPECT_THROW(
        configureFailPoints("test.grammar.site=after(-3):eio"),
        FailPointError);
    EXPECT_THROW(
        configureFailPoints("test.grammar.site=every(0):eio"),
        FailPointError);
    EXPECT_THROW(
        configureFailPoints("test.grammar.site=prob(1.5,7):eio"),
        FailPointError);
    EXPECT_THROW(
        configureFailPoints("test.grammar.site=prob(0.5):eio"),
        FailPointError);
    EXPECT_THROW(
        configureFailPoints("test.grammar.site=after(1):short"),
        FailPointError);
    EXPECT_THROW(
        configureFailPoints("test.grammar.site=off:eio"),
        FailPointError);
    // strtod reads "nan", and NaN fails both range compares; a site
    // armed with it would never fire.
    try {
        configureFailPoints("test.grammar.site=prob(nan,7):eio");
        FAIL() << "expected FailPointError";
    } catch (const FailPointError &e) {
        EXPECT_NE(std::string(e.what()).find("'nan'"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(failPointsArmed());
}

TEST_F(FailPointTest, UnknownSiteListsRegisteredSites)
{
    FailPoint site("test.known.site");
    try {
        configureFailPoints("test.unknown.site=after(1):eio");
        FAIL() << "expected FailPointError";
    } catch (const FailPointError &e) {
        EXPECT_NE(std::string(e.what()).find("test.unknown.site"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("test.known.site"),
                  std::string::npos);
    }
    EXPECT_FALSE(failPointsArmed());
}

TEST_F(FailPointTest, MalformedTailArmsNothing)
{
    FailPoint site("test.atomic.site");
    for (const char *spec :
         {"test.atomic.site=after(0):eio;garbage-program",
          "test.atomic.site=after(0):eio;no.such.site=after(0):eio"}) {
        SCOPED_TRACE(spec);
        EXPECT_THROW(configureFailPoints(spec), FailPointError);
        // Parse and resolve all before arming: the valid prefix must
        // not be live, not even after a later configure recounts the
        // armed sites.
        configureFailPoints("");
        EXPECT_FALSE(failPointsArmed());
        EXPECT_FALSE(site.fire());
    }
}

// ------------------------------------------------------------- triggers

TEST_F(FailPointTest, AfterFiresExactlyOnce)
{
    FailPoint site("test.after.site");
    configureFailPoints("test.after.site=after(2):eio");
    EXPECT_TRUE(failPointsArmed());
    EXPECT_FALSE(site.fire());
    EXPECT_FALSE(site.fire());
    FailDecision hit = site.fire();
    EXPECT_TRUE(hit);
    EXPECT_EQ(hit.kind, FailKind::Eio);
    for (int i = 0; i < 16; ++i)
        EXPECT_FALSE(site.fire());
    EXPECT_EQ(site.hits(), 19u);
}

TEST_F(FailPointTest, EveryFiresEachNthActivation)
{
    FailPoint site("test.every.site");
    configureFailPoints("test.every.site=every(3):enospc");
    std::vector<std::size_t> failed;
    for (std::size_t i = 1; i <= 12; ++i) {
        if (site.fire())
            failed.push_back(i);
    }
    EXPECT_EQ(failed, (std::vector<std::size_t>{3, 6, 9, 12}));
}

TEST_F(FailPointTest, ProbScheduleIsSeedDeterministic)
{
    FailPoint site("test.prob.site");
    auto schedule = [&](const std::string &spec) {
        configureFailPoints(spec);
        std::vector<bool> decisions;
        for (int i = 0; i < 256; ++i)
            decisions.push_back(static_cast<bool>(site.fire()));
        return decisions;
    };
    std::vector<bool> first =
        schedule("test.prob.site=prob(0.5,7):eio");
    std::vector<bool> second =
        schedule("test.prob.site=prob(0.5,7):eio");
    EXPECT_EQ(first, second)
        << "same (P,SEED) must reproduce the same schedule";
    std::vector<bool> other =
        schedule("test.prob.site=prob(0.5,8):eio");
    EXPECT_NE(first, other)
        << "a different seed must produce a different schedule";
    // The rate must be plausibly 0.5, not degenerate.
    std::size_t fails =
        static_cast<std::size_t>(std::count(first.begin(),
                                            first.end(), true));
    EXPECT_GT(fails, 64u);
    EXPECT_LT(fails, 192u);
}

TEST_F(FailPointTest, OffDisarmsOneSiteOthersStayArmed)
{
    FailPoint alpha("test.off.alpha");
    FailPoint beta("test.off.beta");
    configureFailPoints(
        "test.off.alpha=every(1):eio;test.off.beta=every(1):eio");
    EXPECT_TRUE(alpha.fire());
    EXPECT_TRUE(beta.fire());
    configureFailPoints("test.off.alpha=off");
    EXPECT_FALSE(alpha.fire());
    EXPECT_TRUE(beta.fire());
    EXPECT_TRUE(failPointsArmed());
    configureFailPoints("test.off.beta=off");
    EXPECT_FALSE(failPointsArmed());
}

TEST_F(FailPointTest, ReconfigureResetsTheActivationCounter)
{
    FailPoint site("test.reset.site");
    configureFailPoints("test.reset.site=after(1):eio");
    EXPECT_FALSE(site.fire());
    EXPECT_TRUE(site.fire());
    // Re-arming the same program restarts the schedule.
    configureFailPoints("test.reset.site=after(1):eio");
    EXPECT_EQ(site.hits(), 0u);
    EXPECT_FALSE(site.fire());
    EXPECT_TRUE(site.fire());
}

TEST_F(FailPointTest, DisarmedFireCountsNothing)
{
    FailPoint site("test.cold.site");
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(site.fire());
    // Nothing armed: the fast path never reached the counter.
    EXPECT_EQ(site.hits(), 0u);
    EXPECT_FALSE(failPointsArmed());
}

// ------------------------------------------------------------- wrappers

TEST_F(FailPointTest, WrappersMapOutcomesToErrno)
{
    FailPoint site("test.errno.site");
    ScratchFile file;

    configureFailPoints("test.errno.site=every(1):enospc");
    errno = 0;
    EXPECT_EQ(fpWrite(site, file.fd, "x", 1), -1);
    EXPECT_EQ(errno, ENOSPC);

    configureFailPoints("test.errno.site=every(1):eintr");
    errno = 0;
    EXPECT_EQ(fpWrite(site, file.fd, "x", 1), -1);
    EXPECT_EQ(errno, EINTR);

    configureFailPoints("test.errno.site=every(1):fsync");
    errno = 0;
    EXPECT_EQ(fpFsync(site, file.fd), -1);
    EXPECT_EQ(errno, EIO);

    configureFailPoints("test.errno.site=every(1):rename");
    errno = 0;
    EXPECT_EQ(fpRename(site, file.path.c_str(),
                       (file.path + ".renamed").c_str()),
              -1);
    EXPECT_EQ(errno, EIO);

    configureFailPoints("test.errno.site=every(1):eio");
    errno = 0;
    EXPECT_EQ(fpOpen(site, file.path.c_str(), O_RDONLY, 0), -1);
    EXPECT_EQ(errno, EIO);

    configureFailPoints("test.errno.site=every(1):alloc");
    EXPECT_THROW(fpWrite(site, file.fd, "x", 1), std::bad_alloc);

    // Disarmed, the wrapper performs the real syscall.
    clearFailPoints();
    EXPECT_EQ(fpWrite(site, file.fd, "ok", 2), 2);
    EXPECT_EQ(file.contents(), "ok");
}

TEST_F(FailPointTest, ShortWriteTransfersRealBytes)
{
    FailPoint site("test.short.site");
    ScratchFile file;
    configureFailPoints("test.short.site=after(0):short(3)");
    // First write is capped at 3 real bytes; the retry completes.
    EXPECT_EQ(fpWrite(site, file.fd, "abcdef", 6), 3);
    EXPECT_EQ(file.contents(), "abc");
    EXPECT_EQ(fpWrite(site, file.fd, "def", 3), 3);
    EXPECT_EQ(file.contents(), "abcdef");
}

TEST_F(FailPointTest, WriteAllAbsorbsTransientsCompletely)
{
    FailPoint site("test.writeall.site");
    ScratchFile file;
    const std::string payload =
        "the quick brown fox jumps over the lazy dog";
    // EINTR storm plus repeating short writes: fpWriteAll must land
    // every byte exactly once anyway.
    configureFailPoints("test.writeall.site=every(2):short(5)");
    fpWriteAll(site, file.fd, payload, file.path);
    EXPECT_EQ(file.contents(), payload);

    configureFailPoints("test.writeall.site=every(3):eintr");
    fpWriteAll(site, file.fd, payload, file.path);
    EXPECT_EQ(file.contents(), payload + payload);
}

TEST_F(FailPointTest, WriteAllEscalatesDurableFailures)
{
    FailPoint site("test.writeall.hard");
    ScratchFile file;
    configureFailPoints("test.writeall.hard=after(0):enospc");
    try {
        fpWriteAll(site, file.fd, std::string(64, 'x'), file.path);
        FAIL() << "expected IoError";
    } catch (const IoError &e) {
        EXPECT_EQ(e.err, ENOSPC);
        EXPECT_EQ(e.op, "write");
        EXPECT_EQ(e.path, file.path);
    }
}

TEST_F(FailPointTest, WriteAllBoundsZeroProgressRetries)
{
    FailPoint site("test.writeall.storm");
    ScratchFile file;
    // An unbroken EINTR storm must escalate, not spin forever.
    configureFailPoints("test.writeall.storm=every(1):eintr");
    try {
        fpWriteAll(site, file.fd, "payload", file.path);
        FAIL() << "expected IoError";
    } catch (const IoError &e) {
        EXPECT_EQ(e.err, EINTR);
    }
    EXPECT_LE(site.hits(), failPointTransientRetryLimit + 1);
}

TEST_F(FailPointTest, CheckThrowsTypedIoError)
{
    FailPoint site("test.check.site");
    configureFailPoints("test.check.site=after(0):eio");
    try {
        fpCheck(site, "read", "/some/shard/file");
        FAIL() << "expected IoError";
    } catch (const IoError &e) {
        EXPECT_EQ(e.err, EIO);
        EXPECT_EQ(e.op, "read");
        EXPECT_EQ(e.path, "/some/shard/file");
        EXPECT_NE(std::string(e.what()).find("/some/shard/file"),
                  std::string::npos);
    }
    // after(0) is one-shot: the next check passes.
    fpCheck(site, "read", "/some/shard/file");

    configureFailPoints("test.check.site=after(0):alloc");
    EXPECT_THROW(fpCheck(site, "read", "/p"), std::bad_alloc);
}

} // namespace
