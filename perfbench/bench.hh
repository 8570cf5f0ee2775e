/**
 * @file
 * What one benchmark run is asked to do and what it reports.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "rt/execution_report.hh"

namespace perfbench {

/** Command-line request for one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace output of a traced run. */
    std::string traceOut;
    /** Unix socket path of the serve workload's in-process daemon. */
    std::string socketPath;
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** How it was measured (sample count, spread); printed only. */
    std::string note;
};

/** Everything one run measured. */
struct RunResult
{
    /** Operations attempted and those that failed, were refused
     *  unexpectedly, went unanswered or mismatched their reference. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Errors that make the run's outputs untrustworthy (set-ups
     *  that disagree, traced reports that differ from untraced). */
    std::vector<std::string> problems;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;
};

/** The three sweep workloads (sweeps.cc). */
RunResult runSweepWorkload(const RunOptions &options);

/** The serving workload (serve.cc). */
RunResult runServe(const RunOptions &options);

/** Simulated ops a report completed: the placement census total. */
std::uint64_t simOps(const hpim::rt::ExecutionReport &report);

/** Exact simulated counters summed over a run's reports, plus the
 *  digest of their JSON encodings in submission order. */
struct SimCounters
{
    std::uint64_t hostLaunches = 0;
    std::uint64_t recursiveLaunches = 0;
    std::uint64_t retries = 0;
    std::uint64_t opsDegraded = 0;
    std::uint64_t transientFaults = 0;
    std::uint64_t kernelStalls = 0;
    std::uint64_t banksFailed = 0;
    std::uint64_t simOps = 0;
    std::uint64_t encodedBytes = 0;
    std::uint64_t digest = 0;

    /** Fold one report and its jsonString encoding in. */
    void add(const hpim::rt::ExecutionReport &report,
             const std::string &json);
    /** The rt.sim.* and rt.executor.sim_ops metrics. */
    void appendMetrics(std::vector<Metric> &out) const;
};

/** Peak resident set of this process so far, in MB (getrusage). */
double peakRssMb();

/**
 * CPU time this process has used so far, over all its threads, in
 * seconds (CLOCK_PROCESS_CPUTIME_ID). Time a thread spends descheduled
 * -- by neighbours on a shared host or by its own blocking -- does not
 * count, which is what makes it the steady measure of work done.
 */
double processCpuSec();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
