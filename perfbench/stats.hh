/**
 * @file
 * Order statistics for the benchmark's reported numbers.
 *
 * Every timing the benchmark reports is a median or a percentile over
 * many samples, and every percentile must be backed by at least
 * kTailSamples samples beyond it (percentileSupported). The quartiles
 * follow Python's `statistics.quantiles(values, n=4)` (the
 * "exclusive" method) exactly, so the spread a run prints is the one
 * an external script computes from the same values.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <array>
#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples a reported percentile needs beyond it. */
constexpr std::size_t kTailSamples = 10;

/**
 * Linear-interpolation percentile of @p values, q in [0, 1]
 * (position q * (n - 1) in sorted order). Sorts a copy; 0 when empty.
 */
double percentile(std::vector<double> values, double q);

/** percentile(values, 0.5). */
double median(std::vector<double> values);

/**
 * Python's statistics.quantiles(values, n=4): the three cut points
 * {Q1, Q2, Q3}. Needs at least two values; a single value yields
 * itself three times and none yields zeros.
 */
std::array<double, 3> quartiles(std::vector<double> values);

/** (Q3 - Q1) / median, the run-to-run spread; 0 for a zero median. */
double relativeIqr(const std::vector<double> &values);

/** True when @p samples leave at least kTailSamples beyond q. */
bool percentileSupported(std::size_t samples, double q);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
