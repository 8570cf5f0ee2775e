/**
 * @file
 * Scratch directories for tests that write journals: each is a
 * mkdtemp tree under testing::TempDir(), removed when the test that
 * made it ends.
 *
 * Only the process that made a tree removes it. The shard tests
 * fork() a child that is SIGKILLed mid-sweep, and a death test runs
 * its statement in a child process; neither may delete the journals
 * the parent goes on to read.
 */

#ifndef HPIM_TESTS_TEMP_DIRS_HH
#define HPIM_TESTS_TEMP_DIRS_HH

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

namespace hpim::test {

struct TempTree
{
    std::string path;
    pid_t owner;
};

/** The trees tempDir() made since the last test ended. */
inline std::vector<TempTree> &
madeTrees()
{
    static std::vector<TempTree> trees;
    return trees;
}

/** Removes, as each test ends, the trees this process made in it. */
class TempTreeRemover : public testing::EmptyTestEventListener
{
    void
    OnTestEnd(const testing::TestInfo &) override
    {
        for (const TempTree &tree : madeTrees()) {
            std::error_code ignored;
            if (tree.owner == ::getpid())
                std::filesystem::remove_all(tree.path, ignored);
        }
        madeTrees().clear();
    }
};

/** Installed before main, so it covers every test of the binary. */
inline const bool kTempTreeRemoverInstalled = [] {
    testing::UnitTest::GetInstance()->listeners().Append(
        new TempTreeRemover);
    return true;
}();

/** A fresh "<TempDir>hpim-<tag>-XXXXXX" tree, removed when the
 *  current test ends. Call it on the test's own thread. */
inline std::string
tempDir(const char *tag)
{
    std::string path = testing::TempDir() + "hpim-" + tag + "-XXXXXX";
    EXPECT_NE(::mkdtemp(path.data()), nullptr) << path;
    madeTrees().push_back({path, ::getpid()});
    return path;
}

} // namespace hpim::test

#endif // HPIM_TESTS_TEMP_DIRS_HH
