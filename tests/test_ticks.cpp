/**
 * @file
 * Unit tests for the time base.
 */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

using namespace hpim::sim;

TEST(Ticks, SecondConversionsRoundTrip)
{
    EXPECT_EQ(secondsToTicks(1.0), ticksPerSecond);
    EXPECT_DOUBLE_EQ(ticksToSeconds(ticksPerSecond), 1.0);
    EXPECT_DOUBLE_EQ(ticksToSeconds(secondsToTicks(2.5e-3)), 2.5e-3);
}

TEST(Ticks, RoundsToNearestTick)
{
    // 1.4 ps rounds down, 1.6 ps rounds up.
    EXPECT_EQ(secondsToTicks(1.4e-12), 1u);
    EXPECT_EQ(secondsToTicks(1.6e-12), 2u);
}
