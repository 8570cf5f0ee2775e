#include "rt/profiler.hh"

#include <algorithm>
#include <array>

namespace hpim::rt {

using hpim::nn::Graph;
using hpim::nn::Operation;
using hpim::nn::OpType;

std::vector<TypeProfile>
ProfileReport::topByTime() const
{
    auto sorted = byType;
    std::sort(sorted.begin(), sorted.end(),
              [](const TypeProfile &a, const TypeProfile &b) {
                  return a.timeSec > b.timeSec;
              });
    return sorted;
}

std::vector<TypeProfile>
ProfileReport::topByAccesses() const
{
    auto sorted = byType;
    std::sort(sorted.begin(), sorted.end(),
              [](const TypeProfile &a, const TypeProfile &b) {
                  return a.accesses > b.accesses;
              });
    return sorted;
}

ProfileReport
Profiler::profile(const Graph &graph) const
{
    // Sum in graph order: floating-point sums depend on order, and
    // Table I and the selector's ranking read these exact doubles.
    std::array<TypeProfile, hpim::nn::numOpTypes> agg{};
    ProfileReport report;
    for (const Operation &op : graph.ops()) {
        double time = _cpu.opSeconds(op.cost);
        double accesses = _cpu.mainMemoryAccesses(op.cost);
        report.totalTimeSec += time;
        report.totalAccesses += accesses;

        TypeProfile &t = agg[static_cast<std::size_t>(op.type)];
        t.timeSec += time;
        t.accesses += accesses;
        ++t.invocations;
    }

    for (std::size_t i = 0; i < agg.size(); ++i) {
        TypeProfile &t = agg[i];
        if (t.invocations == 0)
            continue;
        t.type = static_cast<OpType>(i);
        if (report.totalTimeSec > 0.0)
            t.timePct = 100.0 * t.timeSec / report.totalTimeSec;
        if (report.totalAccesses > 0.0)
            t.accessPct = 100.0 * t.accesses / report.totalAccesses;
        report.byType.push_back(t);
    }
    return report;
}

ProfileReport
Profiler::profileDelta(const Graph &graph, std::uint64_t) const
{
    return profile(graph);
}

} // namespace hpim::rt
