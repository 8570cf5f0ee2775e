/**
 * @file
 * Simulation time base.
 *
 * A Tick is one picosecond of simulated time. The event queue orders
 * events by tick; rt::Executor converts the analytic device models'
 * durations (seconds) to ticks, and the DRAM models count clock
 * periods in ticks (mem::DramTiming::tCK).
 */

#ifndef HPIM_SIM_TICKS_HH
#define HPIM_SIM_TICKS_HH

#include <cstdint>

namespace hpim::sim {

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Number of ticks per simulated second (1 tick = 1 ps). */
constexpr Tick ticksPerSecond = 1'000'000'000'000ULL;

/** The far-future sentinel. */
constexpr Tick maxTick = ~Tick(0);

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
