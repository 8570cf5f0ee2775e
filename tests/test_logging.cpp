/**
 * @file
 * Unit tests for the logging/error-reporting helpers.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

using namespace hpim::sim;

namespace {

/** A log argument that counts how often it is formatted. */
struct CountsFormatting
{
    int *calls;
};

std::ostream &
operator<<(std::ostream &os, const CountsFormatting &arg)
{
    ++*arg.calls;
    return os << "counted";
}

} // namespace

TEST(Logging, ThresholdRoundTrips)
{
    LogLevel before = logThreshold();
    setLogThreshold(LogLevel::Inform);
    EXPECT_EQ(logThreshold(), LogLevel::Inform);
    setLogThreshold(before);
}

TEST(Logging, FormatAllConcatenatesMixedTypes)
{
    std::string text =
        detail::formatAll("x=", 42, ", y=", 2.5, ", z=", "str");
    EXPECT_EQ(text, "x=42, y=2.5, z=str");
    EXPECT_EQ(detail::formatAll(), "");
}

TEST(LoggingDeath, FatalExitsWithCodeOne)
{
    EXPECT_EXIT({ fatal("bad config value ", 7); },
                testing::ExitedWithCode(1), "bad config value 7");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH({ panic("invariant ", "broken"); },
                 "invariant broken");
}

TEST(LoggingDeath, FatalIfFiresOnlyWhenTrue)
{
    // The false branch must be side-effect free and survivable.
    fatal_if(false, "never");
    panic_if(false, "never");
    EXPECT_EXIT({ fatal_if(1 + 1 == 2, "arithmetic works"); },
                testing::ExitedWithCode(1), "arithmetic works");
}

TEST(Logging, WarnAndInformDoNotTerminate)
{
    warn("model approximated: ", 3, " knobs");
    inform("status ok");
    SUCCEED();
}

TEST(Logging, InformSuppressedBelowThreshold)
{
    LogLevel before = logThreshold();
    setLogThreshold(LogLevel::Warn);
    testing::internal::CaptureStdout();
    inform("quiet message");
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
    setLogThreshold(LogLevel::Inform);
    testing::internal::CaptureStdout();
    inform("loud message");
    EXPECT_NE(testing::internal::GetCapturedStdout().find(
                  "loud message"),
              std::string::npos);
    setLogThreshold(before);
}

TEST(Logging, DroppedMessagesAreNotFormatted)
{
    LogLevel before = logThreshold();
    int informs = 0;
    int warns = 0;
    setLogThreshold(LogLevel::Warn);
    testing::internal::CaptureStdout();
    inform("dropped ", CountsFormatting{&informs});
    warn("printed ", CountsFormatting{&warns});
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              "warn: printed counted\n");
    EXPECT_EQ(informs, 0);
    EXPECT_EQ(warns, 1);

    setLogThreshold(LogLevel::Inform);
    testing::internal::CaptureStdout();
    inform("printed ", CountsFormatting{&informs});
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(informs, 1);
    setLogThreshold(before);
}
