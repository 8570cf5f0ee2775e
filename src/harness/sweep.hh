/**
 * @file
 * The parallel experiment engine.
 *
 * The paper's evaluation is a grid of independent trace-driven
 * simulations (systems x models x frequency/batch sweeps, Figs 8-17).
 * SweepRunner executes such a grid on a harness::ThreadPool and
 * returns the reports in submission order regardless of completion
 * order, so every table a bench prints is identical whatever
 * `--jobs` says.
 *
 * Determinism contract: point i of a sweep runs against its own
 * sim::Rng stream seeded `Rng::streamSeed(baseSeed, i)`. A point's
 * result is a function of (point, baseSeed, i) only -- never of the
 * worker count, worker identity, or completion order -- so a sweep is
 * bit-identical across `--jobs 1..N` and across reruns with the same
 * seed. tests/test_sweep_determinism.cpp enforces this contract.
 *
 * Crash safety: with a journal directory set (`--journal DIR`),
 * report-producing sweeps (run() and mapReports()) persist every
 * completed point to an fsync'd journal (harness/journal) keyed by
 * (pointHash, baseSeed, index). A rerun of the same grid and seed
 * loads journaled points instead of re-simulating them; because a
 * point's result depends only on (point, baseSeed, i), the resumed
 * table is bit-identical to an uninterrupted run. A grid or seed
 * mismatch is rejected via the journal header. SIGINT/SIGTERM during
 * a journaled sweep drains in-flight points, flushes the journal and
 * exits with resumableExitCode. tests/test_checkpoint.cpp enforces
 * all of this.
 *
 * Sharded distribution: with `--shard i/N` (requires --journal), N
 * independent processes -- or hosts on a shared filesystem -- split
 * one grid. Shard i owns the deterministic slice { j : j % N == i-1 }
 * and journals it to its own per-shard segment files; per-point
 * `Rng::streamSeed(baseSeed, j)` makes a point's bytes independent of
 * which shard computes it. A shard that finishes its slice scans the
 * sibling record logs for unfinished points and steals them under
 * per-point claim files (flock-arbitrated, so a point has exactly one
 * live owner and a SIGKILLed shard never strands work). The merged
 * table comes from `hpim_merge` (harness/shard_merge), which
 * validates the shard headers and emits the byte-identical unsharded
 * journal. tests/test_shard_sweep.cpp enforces all of this.
 */

#ifndef HPIM_HARNESS_SWEEP_HH
#define HPIM_HARNESS_SWEEP_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/presets.hh"
#include "harness/thread_pool.hh"
#include "nn/models.hh"
#include "obs/trace.hh"
#include "rt/execution_report.hh"
#include "sim/rng.hh"

namespace hpim::harness {

/** One independent simulation in a sweep grid. */
struct ExperimentPoint
{
    hpim::baseline::SystemKind kind =
        hpim::baseline::SystemKind::HeteroPim;
    hpim::nn::ModelId model = hpim::nn::ModelId::AlexNet;
    std::uint32_t steps = 4;
    double freqScale = 1.0;
    std::uint32_t progrPims = 1;
    int batch = 0; ///< minibatch size; 0 = the model's default
};

/** Journal identity of one ExperimentPoint grid. */
std::uint64_t gridHash(const std::vector<ExperimentPoint> &points);

/** Engine options, usually parsed from argv (parseSweepArgs). */
struct SweepOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    std::uint32_t jobs = 0;
    /** Base seed of the per-point Rng streams. */
    std::uint64_t baseSeed = hpim::sim::defaultSeed;
    /** Checkpoint/resume journal directory; empty = journaling off. */
    std::string journalDir;
    /** Chrome/Perfetto trace output path; empty = tracing off. */
    std::string traceFile;
    /** Cross-point memo cache (sim::MemoCache); `--no-sim-cache`
     *  clears it. Cached and uncached runs are byte-identical. */
    bool simCache = true;
    /** Entry cap for the memo cache (`--sim-cache-max-entries`);
     *  0 = unbounded. Oldest-insertion-first eviction; affects hit
     *  rate only, never results. */
    std::size_t simCacheMaxEntries = 0;
    /** This process's 1-based shard (`--shard i/N`); 1/1 = unsharded.
     *  Sharding requires a journal directory. */
    std::uint32_t shardIndex = 1;
    /** Total shards splitting the grid (`--shard i/N`). */
    std::uint32_t shardCount = 1;
    /** Steal unfinished sibling points after this shard's slice is
     *  done; `--no-steal` disables (each shard then computes exactly
     *  its slice). Meaningless when shardCount == 1. */
    bool workSteal = true;
    /** Host-IO fail-point spec (`--failpoints`, harness/failpoint.hh);
     *  empty = nothing armed and every site is a relaxed-load no-op. */
    std::string failPoints;
    /** User graph files (`--graph`, repeatable; nn::GraphIo JSON).
     *  Benches that support user workloads run each file as an extra
     *  appendix table (harness/graph_workloads.hh); empty = built-in
     *  models only and the appendix prints nothing. */
    std::vector<std::string> graphFiles;
};

/** One sweep point that threw instead of producing a result. */
struct PointFailure
{
    std::size_t index = 0; ///< submission index within its sweep
    std::string what;      ///< exception message
};

/** Wall-clock accounting, cumulative over one runner's sweeps. */
struct SweepStats
{
    std::size_t points = 0;
    std::uint32_t jobs = 1;
    double wallSec = 0.0;   ///< elapsed time inside run()/map()
    /** Sum of per-point thread-CPU times: what a serial run of the
     *  same points would cost. CPU time (not per-task wall time) so
     *  preemption on an oversubscribed machine doesn't inflate it. */
    double serialSec = 0.0;
    /** Points loaded from the journal instead of re-simulated. */
    std::size_t resumedPoints = 0;
    /** Shard assignment of this process (1/1 when unsharded). */
    std::uint32_t shardIndex = 1;
    std::uint32_t shardCount = 1;
    /** Points in this shard's own slices, cumulative over sweeps. */
    std::size_t slicePoints = 0;
    /** Sibling-slice points this shard completed via work-stealing. */
    std::size_t stolenPoints = 0;
    /** Points whose fn threw; index order, independent of --jobs.
     *  Their result slots are default-constructed. */
    std::vector<PointFailure> failures;

    /** Estimated speedup over a serial run of the same points. */
    double
    speedup() const
    {
        return wallSec > 0.0 ? serialSec / wallSec : 1.0;
    }
};

/**
 * Drain-then-exit path of an interrupted journaled sweep: print where
 * the run stopped and leave with resumableExitCode. Called by the
 * engine once in-flight points have completed and the journal holds
 * every finished point.
 */
[[noreturn]] void exitResumable(const SweepStats &stats);

/** Runs experiment grids on a worker pool. See file comment. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {});

    /** Exports the trace (if tracing was requested) to traceFile. */
    ~SweepRunner();

    /** Worker count after resolving jobs=0 to the hardware. */
    std::uint32_t jobs() const { return _jobs; }

    /** Base seed of the per-point streams. */
    std::uint64_t baseSeed() const { return _options.baseSeed; }

    /** Journal directory; empty when journaling is off. */
    const std::string &journalDir() const
    {
        return _options.journalDir;
    }

    /**
     * Simulate every point via baseline::runSystem. Journaled when a
     * journal directory is set (see file comment).
     * @return reports, index-aligned with @p points
     */
    std::vector<hpim::rt::ExecutionReport>
    run(const std::vector<ExperimentPoint> &points);

    /** Callable producing one report per sweep point. */
    using ReportFn = std::function<hpim::rt::ExecutionReport(
        std::size_t, hpim::sim::Rng &)>;

    /**
     * map() for report-producing sweeps, with checkpoint/resume.
     * Behaves exactly like map(count, fn) when no journal directory
     * is set. With one set, completed points are journaled under
     * @p grid_hash -- the caller-supplied identity of this sweep's
     * parameter grid (hash every input that shapes a point's result;
     * sim/hash.hh has the hash helpers) -- and a rerun loads
     * them instead of re-simulating.
     */
    template <typename Fn>
    std::vector<hpim::rt::ExecutionReport>
    mapReports(std::size_t count, std::uint64_t grid_hash, Fn &&fn)
    {
        if (_options.journalDir.empty())
            return map(count, std::forward<Fn>(fn));
        return mapJournaled(count, grid_hash,
                            ReportFn(std::forward<Fn>(fn)));
    }

    /**
     * Generic fan-out: evaluate `fn(i, rng)` for i in [0, count) on
     * the pool, where rng is the point's private stream. @p fn must
     * not touch shared mutable state; its only inputs should be i and
     * rng, or the determinism contract is forfeit.
     *
     * A point whose fn throws does not abort the sweep: its slot holds
     * a default-constructed Result and the failure is recorded (in
     * index order, whatever the worker count) in stats().failures for
     * the sweep footer. Result must be default-constructible.
     *
     * @return results, index-aligned
     */
    template <typename Fn>
    auto
    map(std::size_t count, Fn &&fn)
        -> std::vector<decltype(fn(std::size_t{0},
                                   std::declval<hpim::sim::Rng &>()))>
    {
        using Result = decltype(fn(std::size_t{0},
                                   std::declval<hpim::sim::Rng &>()));
        const auto wall_start = std::chrono::steady_clock::now();
        // Trace scopes must stay unique across successive sweeps on
        // one runner, or two sweeps' point-i events would interleave
        // ambiguously; offset by the points already run.
        const std::size_t scope_base = _stats.points;
        std::vector<double> durations(count, 0.0);
        // Not vector<bool>: workers write distinct indices in parallel.
        std::vector<std::uint8_t> failed(count, 0);
        std::vector<std::string> errors(count);
        std::vector<std::future<Result>> futures;
        futures.reserve(count);
        {
            // jobs=1 runs inline on the calling thread: no pool, no
            // scheduling, the obvious serial reference.
            ThreadPool pool(_jobs > 1 ? _jobs : 0);
            for (std::size_t i = 0; i < count; ++i) {
                // Journaled runs install interrupt handlers: stop
                // submitting, drain what is in flight, exit resumable.
                if (interruptRequested())
                    break;
                futures.push_back(pool.submit([i, scope_base, &fn,
                                               &durations, &failed,
                                               &errors,
                                               seed = _options.baseSeed] {
                    const double start = threadCpuSeconds();
                    hpim::sim::Rng rng(
                        hpim::sim::Rng::streamSeed(seed, i));
                    Result result{};
                    // The point's simulation events record under this
                    // scope so the export reproduces program order
                    // whatever worker ran it. The bracketing instants
                    // use synthetic ts=0 (a point's simulated clock
                    // starts at 0); wall-clock would break the
                    // byte-identical-across---jobs contract.
                    hpim::obs::TraceSession::Scope trace_scope(
                        static_cast<std::uint32_t>(scope_base + i + 1));
                    if (auto *session =
                            hpim::obs::TraceSession::current()) {
                        session->instant(
                            session->track("sweep"), "point start", 0.0,
                            {{"index", static_cast<std::int64_t>(i)}});
                    }
                    try {
                        result = fn(i, rng);
                    } catch (const std::exception &e) {
                        failed[i] = 1;
                        errors[i] = e.what();
                    } catch (...) {
                        failed[i] = 1;
                        errors[i] = "unknown exception";
                    }
                    if (auto *session =
                            hpim::obs::TraceSession::current()) {
                        session->instant(
                            session->track("sweep"), "point done", 0.0,
                            {{"index", static_cast<std::int64_t>(i)},
                             {"outcome",
                              std::string(failed[i] ? "failed"
                                                    : "ok")}});
                    }
                    durations[i] = threadCpuSeconds() - start;
                    return result;
                }));
            }
        }
        std::vector<Result> results;
        results.reserve(count);
        for (auto &future : futures)
            results.push_back(future.get()); // submission order
        for (std::size_t i = 0; i < count; ++i) {
            if (failed[i])
                _stats.failures.push_back(PointFailure{i, errors[i]});
        }
        accumulateStats(durations, secondsSince(wall_start));
        if (interruptRequested())
            exitResumable(_stats);
        return results;
    }

    /** Cumulative accounting over all run()/map() calls so far. */
    const SweepStats &stats() const { return _stats; }

  private:
    static double
    secondsSince(std::chrono::steady_clock::time_point start)
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

    /** CPU seconds consumed by the calling thread so far. */
    static double threadCpuSeconds();

    /** Journaled mapReports body; see file comment. */
    std::vector<hpim::rt::ExecutionReport>
    mapJournaled(std::size_t count, std::uint64_t grid_hash,
                 const ReportFn &fn);

    void accumulateStats(const std::vector<double> &durations,
                         double wall_sec);

    SweepOptions _options;
    std::uint32_t _jobs;
    std::uint32_t _segment = 0; ///< next journal segment number
    SweepStats _stats;
    /** Owned session when options.traceFile is set; else null. */
    std::unique_ptr<hpim::obs::TraceSession> _trace;
};

/**
 * Parse engine flags from a bench/example command line:
 * `--jobs N` (default hardware_concurrency), `--seed S`,
 * `--journal DIR` (crash-safe checkpoint/resume), `--shard i/N`
 * (own slice i of an N-way distributed sweep; requires --journal),
 * `--no-steal` (disable sibling work-stealing), `--trace FILE`
 * (Chrome/Perfetto timeline, docs/OBSERVABILITY.md) and
 * `--failpoints SPEC` (deterministic host-IO fault injection,
 * docs/RESILIENCE.md). Strict: an
 * unknown flag or an out-of-range value prints usage and exits
 * non-zero instead of being silently ignored.
 */
SweepOptions parseSweepArgs(int argc, char **argv);

/**
 * Parse a decimal unsigned integer that fills all of @p text: no
 * sign, no whitespace, no trailing characters, and no value past
 * 2^64-1. Returns nullopt otherwise, so each command line can fatal()
 * with its own usage text.
 */
std::optional<std::uint64_t> parseUnsigned(std::string_view text);

/** Print the `[sweep] N points, J workers, ...` wall-clock footer. */
void printSweepSummary(std::ostream &os, const SweepStats &stats);

} // namespace hpim::harness

#endif // HPIM_HARNESS_SWEEP_HH
