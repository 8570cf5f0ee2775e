#include "rt/schedule_validator.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "sim/logging.hh"

namespace hpim::rt {

using hpim::nn::Graph;
using hpim::nn::OpId;

namespace {

constexpr double kEps = 2e-12; // one tick of slack

std::string
describe(const TraceEntry &entry)
{
    std::ostringstream os;
    os << "'" << entry.label << "' (w" << entry.workload << " s"
       << entry.step << ") on " << placedOnName(entry.placement)
       << " [" << entry.startSec << ", " << entry.endSec << "]";
    return os.str();
}

} // namespace

ValidationResult
validateSchedule(const ScheduleTrace &trace,
                 const std::vector<const Graph *> &graphs,
                 const std::vector<std::uint32_t> &steps,
                 const SystemConfig &config)
{
    fatal_if(graphs.size() != steps.size(),
             "graphs/steps size mismatch");
    ValidationResult result;
    auto violate = [&result](const std::string &what) {
        result.violations.push_back(ScheduleViolation{what});
    };

    // ---- Index intervals by (workload, step, op). Aborted entries
    // (faulted attempts that were retried) record device occupancy
    // but are not the op's completing execution: they are skipped
    // here and in the completeness check, while the capacity sweep
    // below still sees them.
    using Key = std::tuple<std::uint32_t, std::uint32_t, OpId>;
    std::map<Key, const TraceEntry *> index;
    for (const TraceEntry &entry : trace.entries()) {
        if (entry.workload >= graphs.size()) {
            violate("interval for unknown workload: "
                    + describe(entry));
            continue;
        }
        if (entry.aborted)
            continue;
        Key key{entry.workload, entry.step, entry.opId};
        if (!index.emplace(key, &entry).second)
            violate("duplicate interval: " + describe(entry));
    }

    // ---- Completeness: one interval per (workload, step, op).
    for (std::uint32_t w = 0; w < graphs.size(); ++w) {
        for (std::uint32_t s = 0; s < steps[w]; ++s) {
            for (OpId id = 0; id < graphs[w]->size(); ++id) {
                if (!index.count(Key{w, s, id})) {
                    std::ostringstream os;
                    os << "missing interval for op " << id << " (w"
                       << w << " s" << s << ")";
                    violate(os.str());
                }
            }
        }
    }
    if (!result.ok())
        return result; // later checks assume completeness

    // ---- Dependence safety within each (workload, step).
    for (std::uint32_t w = 0; w < graphs.size(); ++w) {
        const Graph &graph = *graphs[w];
        for (std::uint32_t s = 0; s < steps[w]; ++s) {
            for (const auto &op : graph.ops()) {
                const TraceEntry *self = index[Key{w, s, op.id}];
                for (OpId in : graph.inputs(op.id)) {
                    const TraceEntry *producer =
                        index[Key{w, s, in}];
                    if (self->startSec + kEps
                        < producer->endSec - kEps) {
                        violate("dependence violation: "
                                + describe(*self) + " starts before "
                                + describe(*producer) + " ends");
                    }
                }
            }
        }
    }

    // ---- Serial-device capacity.
    auto check_capacity = [&](PlacedOn placement,
                              std::uint32_t capacity,
                              const char *device) {
        std::vector<const TraceEntry *> intervals;
        for (const TraceEntry &entry : trace.entries()) {
            if (entry.placement == placement)
                intervals.push_back(&entry);
        }
        std::sort(intervals.begin(), intervals.end(),
                  [](const TraceEntry *a, const TraceEntry *b) {
                      return a->startSec < b->startSec;
                  });
        // Sweep: count concurrently-open intervals.
        std::vector<double> open_ends;
        for (const TraceEntry *entry : intervals) {
            open_ends.erase(
                std::remove_if(open_ends.begin(), open_ends.end(),
                               [&](double end) {
                                   return end
                                          <= entry->startSec + kEps;
                               }),
                open_ends.end());
            open_ends.push_back(entry->endSec);
            if (open_ends.size() > capacity) {
                violate(std::string("capacity exceeded on ") + device
                        + " at " + describe(*entry));
            }
        }
    };
    check_capacity(PlacedOn::Cpu, 1, "cpu");
    // Not counted: a host-driven op's hold on the CPU and a recursive
    // op's control part on a programmable PIM. Either op's interval
    // also covers its joined fixed part, and the device is freed
    // before that part ends, so no check on these intervals can tell
    // when the device was busy.
    check_capacity(PlacedOn::ProgrPim,
                   std::max<std::uint32_t>(config.progrPimCount, 1),
                   "progr-pim");

    // ---- Step-window discipline per workload.
    std::uint32_t window =
        config.operationPipeline
            ? std::max<std::uint32_t>(config.pipelineDepth, 1)
            : 1;
    for (std::uint32_t w = 0; w < graphs.size(); ++w) {
        std::vector<double> step_end(steps[w], 0.0);
        std::vector<double> step_start(steps[w], 1e300);
        for (const TraceEntry &entry : trace.entries()) {
            if (entry.workload != w)
                continue;
            step_end[entry.step] =
                std::max(step_end[entry.step], entry.endSec);
            step_start[entry.step] =
                std::min(step_start[entry.step], entry.startSec);
        }
        for (std::uint32_t s = window; s < steps[w]; ++s) {
            if (step_start[s] + kEps < step_end[s - window] - kEps) {
                std::ostringstream os;
                os << "step-window violation (w" << w << "): step "
                   << s << " starts at " << step_start[s]
                   << " before step " << s - window << " ends at "
                   << step_end[s - window];
                violate(os.str());
            }
        }
    }
    return result;
}

} // namespace hpim::rt
