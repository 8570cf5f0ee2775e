#include "bench.hh"

#include <ctime>

#include <sys/resource.h>

#include "sim/hash.hh"

namespace perfbench {

std::uint64_t
simOps(const hpim::rt::ExecutionReport &report)
{
    std::uint64_t ops = 0;
    for (const auto &[placement, count] : report.opsByPlacement)
        ops += count;
    return ops;
}

void
SimCounters::add(const hpim::rt::ExecutionReport &report,
                 const std::string &json)
{
    if (digest == 0)
        digest = hpim::sim::fnvOffsetBasis;
    hostLaunches += report.hostLaunches;
    recursiveLaunches += report.recursiveLaunches;
    retries += report.retries;
    opsDegraded += report.opsDegraded;
    transientFaults += report.transientFaults;
    kernelStalls += report.kernelStalls;
    banksFailed += report.banksFailed;
    simOps += perfbench::simOps(report);
    encodedBytes += json.size();
    digest = hpim::sim::hashString(json, digest);
}

void
SimCounters::appendMetrics(std::vector<Metric> &out) const
{
    auto count = [&out](const char *name, std::uint64_t value) {
        out.push_back({name, static_cast<double>(value), "count", ""});
    };
    count("rt.executor.sim_ops", simOps);
    count("rt.sim.host_launches", hostLaunches);
    count("rt.sim.recursive_launches", recursiveLaunches);
    count("rt.sim.retries", retries);
    count("rt.sim.ops_degraded", opsDegraded);
    count("rt.sim.transient_faults", transientFaults);
    count("rt.sim.kernel_stalls", kernelStalls);
    count("rt.sim.banks_failed", banksFailed);
    // 48 bits, so the value survives a round trip through a double.
    out.push_back({"rt.sim.report_digest",
                   static_cast<double>(digest & ((1ULL << 48) - 1)),
                   "hash", "FNV-1a of every report's jsonString"});
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

double
processCpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
           + static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace perfbench
