#include "harness/sweep.hh"

#include <atomic>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <string>
#include <thread>

#include "harness/failpoint.hh"
#include "harness/journal.hh"
#include "harness/table_printer.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sim/memo_cache.hh"

namespace hpim::harness {

namespace {

constexpr std::uint32_t kMaxJobs = 4096;
constexpr std::uint32_t kMaxShards = 4096;

const char *const kUsage =
    "usage: <binary> [--jobs N] [--seed S] [--journal DIR] "
    "[--shard i/N] [--no-steal] [--trace FILE] [--no-sim-cache] "
    "[--sim-cache-max-entries N] "
    "[--failpoints SPEC] [--graph FILE]...\n"
    "  --jobs N       worker threads, 1..4096 (0 or absent: all "
    "hardware threads)\n"
    "  --seed S       base seed of the per-point rng streams\n"
    "  --journal DIR  crash-safe checkpoint/resume directory "
    "(docs/RESILIENCE.md)\n"
    "  --shard i/N    own slice i of an N-way distributed sweep; "
    "requires --journal (docs/SWEEP_ENGINE.md)\n"
    "  --no-steal     do not steal unfinished sibling-shard points\n"
    "  --trace FILE   write a Chrome/Perfetto timeline of the run "
    "(docs/OBSERVABILITY.md)\n"
    "  --no-sim-cache disable the cross-point memo cache "
    "(docs/PERFORMANCE.md)\n"
    "  --sim-cache-max-entries N  cap the memo cache at N entries "
    "(oldest evicted first; 0 = unbounded)\n"
    "  --failpoints SPEC arm host-IO fail points, e.g. "
    "'journal.append.write=after(3):enospc' (docs/RESILIENCE.md)\n"
    "  --graph FILE   also sweep a user graph (nn::GraphIo JSON; "
    "repeatable, docs/GRAPHS.md)";

std::uint32_t
resolveJobs(std::uint32_t requested)
{
    if (requested != 0)
        return requested;
    std::uint32_t hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

// The trace file is written by obs (which sits below the harness in
// the link order and cannot name FailPoint), so the injection site
// lives here at the call boundary instead.
FailPoint fpTraceExport("trace.export.write");

/**
 * Typed escalation of a durable journal IO failure (ENOSPC, EIO,
 * rejected fsync): everything appended before the failure is sealed
 * and durable, so the operator clears the condition and reruns the
 * same command for a byte-identical resume -- exactly the SIGINT
 * drain contract, with the cause spelled out.
 */
[[noreturn]] void
exitJournalFailure(const std::string &what, const SweepStats &stats)
{
    // stderr, not stdout: the tables a resumed run prints must stay
    // byte-identical to an uninterrupted run.
    std::cerr << "[sweep] journal IO failure: " << what
              << "; journal sealed at the last durable record after "
              << stats.points
              << " points, in-flight points drained. Clear the "
                 "condition and rerun the same command to resume "
                 "(exit "
              << resumableExitCode << ").\n";
    std::exit(resumableExitCode);
}

std::uint64_t
parseUint(const char *flag, const std::string &text)
{
    std::optional<std::uint64_t> value = parseUnsigned(text);
    if (!value)
        fatal(flag, " expects an unsigned integer, got '", text,
              "'\n", kUsage);
    return *value;
}

} // namespace

std::uint64_t
gridHash(const std::vector<ExperimentPoint> &points)
{
    using hpim::sim::hashU64;
    std::uint64_t hash =
        hpim::sim::hashString("hpim ExperimentPoint grid v1");
    for (const ExperimentPoint &p : points) {
        hash = hashU64(static_cast<std::uint64_t>(p.kind), hash);
        hash = hashU64(static_cast<std::uint64_t>(p.model), hash);
        hash = hashU64(p.steps, hash);
        hash = hashU64(std::bit_cast<std::uint64_t>(p.freqScale), hash);
        hash = hashU64(p.progrPims, hash);
        hash = hashU64(static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(p.batch)),
                       hash);
    }
    return hash;
}

void
exitResumable(const SweepStats &stats)
{
    // stderr, not stdout: the tables a resumed run prints must stay
    // byte-identical to an uninterrupted run.
    std::cerr << "[sweep] interrupted by signal " << interruptSignal()
              << " after " << stats.points
              << " points; in-flight points drained, journal "
                 "flushed. Rerun the same command to resume (exit "
              << resumableExitCode << ").\n";
    std::exit(resumableExitCode);
}

SweepRunner::SweepRunner(SweepOptions options)
    : _options(std::move(options)), _jobs(resolveJobs(_options.jobs))
{
    fatal_if(_options.shardCount == 0 || _options.shardIndex == 0
                 || _options.shardIndex > _options.shardCount,
             "shard assignment ", _options.shardIndex, "/",
             _options.shardCount, " is invalid (need 1 <= i <= N)");
    fatal_if(_options.shardCount > 1 && _options.journalDir.empty(),
             "--shard requires --journal: shards coordinate and "
             "publish results through the journal directory");
    _stats.jobs = _jobs;
    _stats.shardIndex = _options.shardIndex;
    _stats.shardCount = _options.shardCount;
    configureFailPointsFromEnv();
    if (!_options.failPoints.empty()) {
        try {
            configureFailPoints(_options.failPoints);
        } catch (const FailPointError &e) {
            fatal("--failpoints: ", e.what(), "\n", kUsage);
        }
    }
    hpim::sim::MemoCache::setEnabled(_options.simCache);
    hpim::sim::MemoCache::instance().setMaxEntries(
        _options.simCacheMaxEntries);
    // Only journaled runs trade the default die-on-SIGINT for the
    // drain + flush + resumable-exit path.
    if (!_options.journalDir.empty())
        installInterruptHandlers();
    if (!_options.traceFile.empty()) {
        _trace = std::make_unique<hpim::obs::TraceSession>();
        _trace->attach();
    }
}

SweepRunner::~SweepRunner()
{
    if (!_trace)
        return;
    _trace->detach();
    // A trace that cannot be written costs an artifact, not the
    // sweep: the tables are already printed, so warn and move on.
    try {
        fpCheck(fpTraceExport, "write", _options.traceFile);
        _trace->exportChromeTrace(_options.traceFile);
        // stderr: a bench's stdout tables must stay byte-identical
        // whether or not tracing is on.
        std::cerr << "[trace] wrote " << _options.traceFile << " ("
                  << _trace->eventCount() << " events)\n";
    } catch (const std::exception &e) {
        std::cerr << "[trace] export of " << _options.traceFile
                  << " failed: " << e.what() << "\n";
    }
}

std::vector<hpim::rt::ExecutionReport>
SweepRunner::run(const std::vector<ExperimentPoint> &points)
{
    // runSystem is a deterministic analytic simulation, so the
    // per-point stream is unused here; it exists so stochastic
    // extensions inherit the same (baseSeed, index) contract.
    return mapReports(points.size(), gridHash(points),
                      [&points](std::size_t i, hpim::sim::Rng &) {
                          const ExperimentPoint &p = points[i];
                          return hpim::baseline::runSystem(
                              p.kind, p.model, p.steps, p.freqScale,
                              p.progrPims, p.batch);
                      });
}

std::vector<hpim::rt::ExecutionReport>
SweepRunner::mapJournaled(std::size_t count, std::uint64_t grid_hash,
                          const ReportFn &fn)
{
    const auto wall_start = std::chrono::steady_clock::now();
    const std::uint32_t shard = _options.shardIndex;
    const std::uint32_t shards = _options.shardCount;
    const std::string &dir = _options.journalDir;

    SweepJournal::Header header;
    header.baseSeed = _options.baseSeed;
    header.gridHash = grid_hash;
    header.points = count;
    header.shardIndex = shard;
    header.shardCount = shards;
    const std::uint32_t segment = _segment++;
    // An IO failure opening the journal (disk full creating the
    // directory, header publish rejected, ...) is already the
    // resumable case: nothing was lost, the header publish is atomic.
    auto journal_ptr = [&]() -> std::unique_ptr<SweepJournal> {
        try {
            return std::make_unique<SweepJournal>(dir, segment,
                                                  header);
        } catch (const IoError &e) {
            exitJournalFailure(e.what(), _stats);
        }
    }();
    SweepJournal &journal = *journal_ptr;

    std::vector<hpim::rt::ExecutionReport> results(count);
    // Not vector<bool>: workers mark distinct indices in parallel.
    std::vector<std::uint8_t> have(count, 0);
    std::size_t resumed = 0;
    for (const SweepJournal::Record &record : journal.loaded()) {
        fatal_if(record.pointHash
                     != journalPointHash(grid_hash, record.index),
                 "journal record for point ", record.index,
                 " does not match this sweep's grid; delete the "
                 "journal directory '",
                 dir, "' to start over");
        if (have[record.index])
            continue; // duplicate record: first one wins
        results[record.index] = record.report;
        have[record.index] = 1;
        ++resumed;
    }

    // Same scope discipline as map(); see the comment there. A
    // resumed point records no events (it never simulates), which is
    // why trace comparisons always use uninterrupted runs.
    const std::size_t scope_base = _stats.points;
    std::vector<double> durations(count, 0.0);
    std::vector<std::uint8_t> failed(count, 0);
    std::vector<std::string> errors(count);
    // attempted[i]: this process simulated point i (successfully or
    // not). Bounds work-stealing on deterministically failing points
    // to one attempt per process.
    std::vector<std::uint8_t> attempted(count, 0);

    // First durable journal IO failure, if any: workers stop
    // submitting, in-flight points drain, and the run escalates to
    // the resumable exit below instead of mislabelling the sweep as
    // complete with silently unjournaled points.
    std::atomic<bool> journal_failed{false};
    std::mutex journal_error_mutex;
    std::string journal_error;
    auto recordJournalFailure = [&](const std::exception &e) {
        std::lock_guard<std::mutex> lock(journal_error_mutex);
        if (!journal_failed.exchange(true, std::memory_order_release))
            journal_error = e.what();
    };

    // Simulate point i on the calling worker thread: the journaled
    // twin of the map() task body. Exactly one process runs this per
    // point at a time (claim-arbitrated when sharded).
    auto simulate = [&, seed = _options.baseSeed](std::size_t i) {
        const double start = threadCpuSeconds();
        hpim::sim::Rng rng(hpim::sim::Rng::streamSeed(seed, i));
        hpim::obs::TraceSession::Scope trace_scope(
            static_cast<std::uint32_t>(scope_base + i + 1));
        if (auto *session = hpim::obs::TraceSession::current()) {
            session->instant(session->track("sweep"), "point start",
                             0.0,
                             {{"index", static_cast<std::int64_t>(i)}});
        }
        bool simulated = false;
        try {
            results[i] = fn(i, rng);
            simulated = true;
        } catch (const std::exception &e) {
            failed[i] = 1;
            errors[i] = e.what();
        } catch (...) {
            failed[i] = 1;
            errors[i] = "unknown exception";
        }
        // Journal only successes: a failed point is re-attempted by
        // the next resume (or by a sibling shard). The append sits
        // outside the fn catch on purpose -- a journal IO failure is
        // a property of the run, not of the point, and must escalate
        // (the point stays unjournaled and is re-simulated on
        // resume) rather than masquerade as a point failure in the
        // table.
        if (simulated && !journal_failed.load(std::memory_order_acquire)) {
            try {
                journal.append(i, journalPointHash(grid_hash, i),
                               results[i]);
                have[i] = 1;
            } catch (const IoError &e) {
                recordJournalFailure(e);
            }
        }
        if (auto *session = hpim::obs::TraceSession::current()) {
            session->instant(
                session->track("sweep"), "point done", 0.0,
                {{"index", static_cast<std::int64_t>(i)},
                 {"outcome",
                  std::string(failed[i] ? "failed" : "ok")}});
        }
        attempted[i] = 1;
        durations[i] = threadCpuSeconds() - start;
    };

    // Is point i already recorded in a sibling shard's log? A scan of
    // the sibling record files (their good prefixes; a torn tail or
    // an in-flight append is simply not visible yet).
    auto recordedBySibling = [&](std::size_t i) {
        for (std::uint32_t s = 1; s <= shards; ++s) {
            if (s == shard)
                continue;
            std::vector<RawRecord> raw;
            if (!scanJournalRecords(
                    journalRecordsPath(dir, segment, s, shards),
                    count, raw))
                continue;
            for (const RawRecord &record : raw) {
                if (record.index == i)
                    return true;
            }
        }
        return false;
    };

    // Phase 1: this shard's own slice. Claims keep a restarted shard
    // and an actively stealing sibling from simulating a point twice.
    std::size_t slice_points = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (journalShardOwner(i, shards) == shard)
            ++slice_points;
    }
    {
        std::vector<std::future<void>> futures;
        futures.reserve(count);
        // jobs=1 runs inline on the calling thread: no pool, no
        // scheduling, the obvious serial reference.
        ThreadPool pool(_jobs > 1 ? _jobs : 0);
        for (std::size_t i = 0; i < count; ++i) {
            if (have[i] || journalShardOwner(i, shards) != shard)
                continue;
            // Journaled runs install interrupt handlers: stop
            // submitting, drain what is in flight, exit resumable.
            // A sealed journal stops submission the same way.
            if (interruptRequested()
                || journal_failed.load(std::memory_order_acquire))
                break;
            futures.push_back(pool.submit([&, i] {
                if (shards > 1) {
                    std::optional<ShardClaim> claim;
                    try {
                        claim = ShardClaim::tryAcquire(dir, segment,
                                                       i, shard);
                    } catch (const IoError &e) {
                        // Claim files live on the same volume as the
                        // records: an unopenable claim is the same
                        // durable condition, escalated the same way.
                        recordJournalFailure(e);
                        return;
                    }
                    if (!claim)
                        return; // a live sibling stole it already
                    if (recordedBySibling(i))
                        return; // finished elsewhere; drop the claim
                    simulate(i);
                } else {
                    simulate(i);
                }
            }));
        }
        for (auto &future : futures)
            future.get();
    }

    // Phase 2: work-stealing. The slice is done (or failed), so scan
    // the sibling logs for points nobody has finished and claim them
    // one by one. A SIGKILLed sibling's claims were released by the
    // kernel, so its unfinished points are immediately stealable;
    // points a live sibling is working on stay claimed and are left
    // alone. Loop until a scan finds nothing this process can take.
    std::size_t stolen = 0;
    if (shards > 1 && _options.workSteal) {
        while (!interruptRequested()
               && !journal_failed.load(std::memory_order_acquire)) {
            std::vector<std::uint8_t> done = have;
            for (std::uint32_t s = 1; s <= shards; ++s) {
                if (s == shard)
                    continue;
                std::vector<RawRecord> raw;
                if (!scanJournalRecords(
                        journalRecordsPath(dir, segment, s, shards),
                        count, raw))
                    continue;
                for (const RawRecord &record : raw)
                    done[record.index] = 1;
            }
            std::vector<std::size_t> todo;
            for (std::size_t i = 0; i < count; ++i) {
                if (!done[i] && !attempted[i])
                    todo.push_back(i);
            }
            if (todo.empty())
                break;
            std::atomic<std::size_t> progress{0};
            std::atomic<std::size_t> stolen_now{0};
            {
                std::vector<std::future<void>> futures;
                futures.reserve(todo.size());
                ThreadPool pool(_jobs > 1 ? _jobs : 0);
                for (std::size_t i : todo) {
                    if (interruptRequested()
                        || journal_failed.load(
                            std::memory_order_acquire))
                        break;
                    futures.push_back(pool.submit([&, i] {
                        std::optional<ShardClaim> claim;
                        try {
                            claim = ShardClaim::tryAcquire(
                                dir, segment, i, shard);
                        } catch (const IoError &e) {
                            recordJournalFailure(e);
                            return;
                        }
                        if (!claim)
                            return; // a live process owns the point
                        if (recordedBySibling(i)) {
                            // Completed between our scan and claim;
                            // rescan will pick it up.
                            progress.fetch_add(1);
                            return;
                        }
                        simulate(i);
                        if (!failed[i])
                            stolen_now.fetch_add(1);
                        progress.fetch_add(1);
                    }));
                }
                for (auto &future : futures)
                    future.get();
            }
            stolen += stolen_now.load();
            // No claim acquired and nothing newly finished: whatever
            // remains is being worked by live siblings. Their crash
            // would be recovered by the next resume of any shard.
            if (progress.load() == 0)
                break;
        }
    }

    for (std::size_t i = 0; i < count; ++i) {
        if (failed[i])
            _stats.failures.push_back(PointFailure{i, errors[i]});
    }
    _stats.resumedPoints += resumed;
    _stats.slicePoints += slice_points;
    _stats.stolenPoints += stolen;
    accumulateStats(durations, secondsSince(wall_start));
    if (journal_failed.load(std::memory_order_acquire))
        exitJournalFailure(journal_error, _stats);
    if (interruptRequested())
        exitResumable(_stats);
    return results;
}

double
SweepRunner::threadCpuSeconds()
{
#ifdef CLOCK_THREAD_CPUTIME_ID
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
#endif
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
SweepRunner::accumulateStats(const std::vector<double> &durations,
                             double wall_sec)
{
    _stats.points += durations.size();
    _stats.wallSec += wall_sec;
    for (double d : durations)
        _stats.serialSec += d;
}

SweepOptions
parseSweepArgs(int argc, char **argv)
{
    SweepOptions options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        auto flagValue = [&](const char *flag) -> bool {
            std::size_t n = std::strlen(flag);
            if (arg.compare(0, n, flag) != 0)
                return false;
            if (arg.size() > n && arg[n] == '=') {
                value = arg.substr(n + 1);
                return true;
            }
            if (arg.size() == n) {
                fatal_if(i + 1 >= argc, flag, " needs a value\n",
                         kUsage);
                value = argv[++i];
                return true;
            }
            return false;
        };
        if (flagValue("--jobs")) {
            std::uint64_t jobs = parseUint("--jobs", value);
            if (jobs > kMaxJobs)
                fatal("--jobs must be in 0..", kMaxJobs, ", got ",
                      jobs, "\n", kUsage);
            options.jobs = static_cast<std::uint32_t>(jobs);
        } else if (flagValue("--seed")) {
            options.baseSeed = parseUint("--seed", value);
        } else if (flagValue("--journal")) {
            if (value.empty())
                fatal("--journal needs a directory\n", kUsage);
            options.journalDir = value;
        } else if (flagValue("--trace")) {
            if (value.empty())
                fatal("--trace needs a file path\n", kUsage);
            options.traceFile = value;
        } else if (flagValue("--graph")) {
            if (value.empty())
                fatal("--graph needs a file path\n", kUsage);
            options.graphFiles.push_back(value);
        } else if (flagValue("--failpoints")) {
            if (value.empty())
                fatal("--failpoints needs a spec, e.g. "
                      "'journal.append.write=after(3):enospc'\n",
                      kUsage);
            options.failPoints = value;
        } else if (flagValue("--shard")) {
            std::size_t slash = value.find('/');
            if (slash == std::string::npos || slash == 0
                || slash + 1 >= value.size())
                fatal("--shard expects i/N (e.g. --shard 2/3), got '",
                      value, "'\n", kUsage);
            std::uint64_t index =
                parseUint("--shard", value.substr(0, slash));
            std::uint64_t count =
                parseUint("--shard", value.substr(slash + 1));
            if (count == 0 || count > kMaxShards || index == 0
                || index > count)
                fatal("--shard needs 1 <= i <= N <= ", kMaxShards,
                      ", got ", value, "\n", kUsage);
            options.shardIndex = static_cast<std::uint32_t>(index);
            options.shardCount = static_cast<std::uint32_t>(count);
        } else if (flagValue("--sim-cache-max-entries")) {
            options.simCacheMaxEntries = static_cast<std::size_t>(
                parseUint("--sim-cache-max-entries", value));
        } else if (arg == "--no-steal") {
            options.workSteal = false;
        } else if (arg == "--no-sim-cache") {
            options.simCache = false;
        } else {
            fatal("unknown argument '", arg, "'\n", kUsage);
        }
    }
    if (options.shardCount > 1 && options.journalDir.empty())
        fatal("--shard requires --journal: shards coordinate and "
              "publish results through the journal directory\n",
              kUsage);
    return options;
}

std::optional<std::uint64_t>
parseUnsigned(std::string_view text)
{
    // from_chars takes no sign and skips no whitespace for an
    // unsigned type, and reports overflow instead of saturating.
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return value;
}

void
printSweepSummary(std::ostream &os, const SweepStats &stats)
{
    os << "\n[sweep] " << stats.points << " points, " << stats.jobs
       << (stats.jobs == 1 ? " worker" : " workers") << ": wall "
       << fmt(stats.wallSec, 2) << " s, serial-equivalent "
       << fmt(stats.serialSec, 2) << " s, speedup "
       << fmtRatio(stats.speedup()) << "\n";
    if (hpim::sim::MemoCache::enabled()) {
        // Always-on atomics, readable without any obs attachment.
        // CI byte-diffs strip [sweep] lines, so reporting cache
        // efficacy here cannot perturb table identity.
        auto cache = hpim::sim::MemoCache::instance().stats();
        os << "[sweep] sim-cache: " << cache.hits << " hits, "
           << cache.misses << " misses, " << cache.insertions
           << " insertions, " << cache.evictions << " evictions, "
           << cache.entries << " entries\n";
    } else {
        os << "[sweep] sim-cache: disabled\n";
    }
    if (stats.resumedPoints > 0) {
        os << "[sweep] " << stats.resumedPoints
           << (stats.resumedPoints == 1 ? " point" : " points")
           << " resumed from journal, "
           << stats.points - stats.resumedPoints << " simulated\n";
    }
    if (stats.shardCount > 1) {
        os << "[sweep] shard " << stats.shardIndex << "/"
           << stats.shardCount << ": " << stats.slicePoints
           << " slice point"
           << (stats.slicePoints == 1 ? "" : "s") << ", "
           << stats.stolenPoints << " stolen from siblings\n";
    }
    if (!stats.failures.empty()) {
        os << "[sweep] " << stats.failures.size() << " point"
           << (stats.failures.size() == 1 ? "" : "s")
           << " FAILED:\n";
        for (const PointFailure &f : stats.failures)
            os << "[sweep]   point " << f.index << ": " << f.what
               << "\n";
    }
}

} // namespace hpim::harness
