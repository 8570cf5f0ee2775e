#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

std::array<double, 3>
quartiles(std::vector<double> values)
{
    const std::size_t n = values.size();
    if (n == 0)
        return {0.0, 0.0, 0.0};
    if (n == 1)
        return {values[0], values[0], values[0]};
    std::sort(values.begin(), values.end());
    // CPython's exclusive method, in its exact integer arithmetic:
    //   m = n + 1; j = i*m // 4 clamped to [1, n-1];
    //   delta = i*m - 4*j; q_i = (x[j-1]*(4-delta) + x[j]*delta) / 4
    const std::size_t m = n + 1;
    std::array<double, 3> out{};
    for (std::size_t i = 1; i <= 3; ++i) {
        std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
        const double delta =
            static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
        out[i - 1] =
            (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    }
    return out;
}

double
relativeIqr(const std::vector<double> &values)
{
    const std::array<double, 3> q = quartiles(values);
    return q[1] != 0.0 ? (q[2] - q[0]) / std::fabs(q[1]) : 0.0;
}

bool
percentileSupported(std::size_t samples, double q)
{
    return (1.0 - q) * static_cast<double>(samples)
           >= static_cast<double>(kTailSamples) - 1e-9;
}

} // namespace perfbench
