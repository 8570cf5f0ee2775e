/**
 * @file
 * Simulation time base.
 *
 * A Tick is one picosecond of simulated time. rt::EventHeap orders
 * the executor's events by tick; rt::Executor converts the analytic
 * device models' durations (seconds) to ticks.
 */

#ifndef HPIM_SIM_TICKS_HH
#define HPIM_SIM_TICKS_HH

#include <cstdint>

namespace hpim::sim {

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Number of ticks per simulated second (1 tick = 1 ps). */
constexpr Tick ticksPerSecond = 1'000'000'000'000ULL;

/** Convert seconds (double) to ticks, rounding to nearest. */
constexpr Tick
secondsToTicks(double seconds)
{
    return static_cast<Tick>(seconds * static_cast<double>(ticksPerSecond)
                             + 0.5);
}

/** Convert ticks to seconds. */
constexpr double
ticksToSeconds(Tick ticks)
{
    return static_cast<double>(ticks) / static_cast<double>(ticksPerSecond);
}

} // namespace hpim::sim

#endif // HPIM_SIM_TICKS_HH
