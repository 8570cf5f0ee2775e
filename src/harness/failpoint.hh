/**
 * @file
 * Deterministic host-IO fail-point injection (docs/RESILIENCE.md,
 * "Host-IO fault injection").
 *
 * Where sim::FaultModel injects *simulated hardware* faults into the
 * modelled machine, FailPoint injects *host* failures -- ENOSPC,
 * EINTR, short writes, failed fsyncs, failed renames, allocation
 * failures -- into the process's own IO paths: journal appends,
 * header publishes, directory fsyncs, claim files, shard-merge
 * reads, report writers, trace export, and the serve daemon's socket
 * framing. Every durability decision in the harness can thus be
 * exercised in CI instead of waiting for a full disk at 3am.
 *
 * Each IO boundary declares one named *site* (a static FailPoint).
 * When no site is armed, FailPoint::fire() is a single relaxed
 * atomic load -- the same near-zero-cost-when-off discipline as
 * rt::Executor::obsActive() -- so production runs pay nothing and
 * bench output stays byte-identical. Arming happens through a spec
 * string (`--failpoints` on the sweep benches, hpim_cli and
 * hpim_serve, or the HPIM_FAILPOINTS environment variable):
 *
 *   spec     := program (';' program)*
 *   program  := site '=' trigger ':' outcome
 *   trigger  := 'off' | 'after(' N ')' | 'every(' N ')'
 *             | 'prob(' P ',' SEED ')'
 *   outcome  := 'enospc' | 'eintr' | 'eio' | 'short(' K ')'
 *             | 'fsync' | 'rename' | 'alloc'
 *
 * `after(N)` passes the first N activations, fails activation N+1
 * once, then passes forever (the one-shot crash). `every(N)` fails
 * every Nth activation (the repeating transient). `prob(P,SEED)`
 * fails each activation independently with probability P, drawn
 * deterministically from (SEED, activation index) -- two runs with
 * the same spec see the same failure schedule. Example:
 *
 *   --failpoints 'journal.append.write=after(3):enospc'
 *   HPIM_FAILPOINTS='serve.send=every(2):eintr;journal.dir.fsync=after(0):fsync'
 *
 * Sites interpret outcomes through the fpWrite/fpFsync/fpRename/
 * fpOpen/fpSend/fpRecv wrappers below, which turn a decision into
 * the errno the real syscall would have produced (or a genuinely
 * short transfer, so retry loops are exercised against real bytes).
 * An unknown site or malformed program throws FailPointError naming
 * the offending token and the registered sites.
 */

#ifndef HPIM_HARNESS_FAILPOINT_HH
#define HPIM_HARNESS_FAILPOINT_HH

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/types.h>

namespace hpim::harness {

/** What an armed fail-point makes its site do. */
enum class FailKind : std::uint8_t
{
    None,       ///< site passes; perform the real operation
    Enospc,     ///< fail with ENOSPC (disk full)
    Eintr,      ///< fail with EINTR (interrupted syscall)
    Eio,        ///< fail with EIO (generic hard IO error)
    ShortWrite, ///< transfer only `bytes` bytes (a real short write)
    FsyncFail,  ///< fsync/fdatasync reports EIO
    RenameFail, ///< rename reports EIO
    AllocFail,  ///< throw std::bad_alloc at the site
};

/** One activation's verdict. Contextually false when the site passes. */
struct FailDecision
{
    FailKind kind = FailKind::None;
    /** ShortWrite only: bytes the transfer is allowed to move. */
    std::uint64_t bytes = 0;

    explicit operator bool() const { return kind != FailKind::None; }
};

/** A malformed --failpoints/HPIM_FAILPOINTS spec. */
struct FailPointError : std::runtime_error
{
    explicit FailPointError(const std::string &message)
        : std::runtime_error("failpoints: " + message)
    {
    }
};

/**
 * A host-IO operation that failed, possibly by injection. The typed
 * escalation path of every hardened IO site: callers classify on
 * `err` (EINTR is transient, ENOSPC/EIO are durable) instead of
 * matching message text.
 */
struct IoError : std::runtime_error
{
    IoError(std::string operation, std::string file_path, int error);

    std::string op;   ///< "write", "fsync", "rename", ...
    std::string path; ///< file the operation targeted
    int err;          ///< errno at failure time
};

/**
 * One named injection site. Declare as a namespace-scope static in
 * the file owning the IO boundary; construction registers the site
 * with the process-wide registry (destruction unregisters, for
 * test-local sites). fire() is the hot path: a single relaxed load
 * of the global armed-site count when nothing is armed.
 */
class FailPoint
{
  public:
    explicit FailPoint(const char *site);
    ~FailPoint();

    FailPoint(const FailPoint &) = delete;
    FailPoint &operator=(const FailPoint &) = delete;

    const std::string &site() const { return _site; }

    /** Decide this activation. Cheap when off; armed sites count the
     *  activation and evaluate their trigger program. */
    FailDecision
    fire()
    {
        if (armedCount().load(std::memory_order_relaxed) == 0)
            return {};
        return fireSlow();
    }

    /** Activations seen while this site was armed (tests). */
    std::uint64_t hits() const;

  private:
    friend void configureFailPoints(const std::string &);
    friend void clearFailPoints();
    friend bool failPointsArmed();
    friend struct FailPointDetail; ///< failpoint.cc internals

    /** Process-wide count of armed sites; fire()'s fast-path gate. */
    static std::atomic<std::uint32_t> &armedCount();

    FailDecision fireSlow();

    struct Program; ///< parsed trigger + outcome; null when off
    std::string _site;
    /** Owned; swapped under the registry mutex, read in fireSlow()
     *  under the same mutex (the slow path may lock: it only runs
     *  while a chaos program is armed). */
    Program *_program = nullptr;
    std::uint64_t _hits = 0;
};

/**
 * Parse @p spec and arm the named sites, replacing any earlier
 * programs (sites not named keep their state; name a site with
 * trigger `off` to disarm just it). Throws FailPointError on a
 * malformed program or unknown site. Thread-safe, but meant to run
 * at startup or between test cases, not concurrently with hot IO.
 */
void configureFailPoints(const std::string &spec);

/** Disarm every site and reset activation counters. */
void clearFailPoints();

/** Arm from $HPIM_FAILPOINTS if set. Idempotent per process; the
 *  entry points (SweepRunner, Server, hpim_cli) all call it, so any
 *  binary honours the variable. fatal() on a malformed value: an
 *  ignored chaos spec would silently test nothing. */
void configureFailPointsFromEnv();

/** @return sorted names of every registered site. */
std::vector<std::string> failPointSites();

/** @return true iff any site is currently armed. */
bool failPointsArmed();

// ------------------------------------------------------- syscall wrappers
//
// Each wrapper consults @p fp, then either performs the real syscall
// or produces the injected failure (errno set exactly as the kernel
// would). ShortWrite performs a *real* transfer of min(size, k)
// bytes, so retry loops re-issue against genuinely persisted data.
// AllocFail throws std::bad_alloc from the wrapper.

/** write(2) with injection. */
ssize_t fpWrite(FailPoint &fp, int fd, const void *data,
                std::size_t size);

/** fsync(2) with injection (FsyncFail/Enospc/Eio/Eintr). */
int fpFsync(FailPoint &fp, int fd);

/** rename(2) with injection (RenameFail/Enospc/Eio). */
int fpRename(FailPoint &fp, const char *from, const char *to);

/** open(2) with injection (Enospc/Eio/Eintr). */
int fpOpen(FailPoint &fp, const char *path, int flags,
           unsigned int mode);

/** send(2) with injection; ShortWrite caps the transfer. */
ssize_t fpSend(FailPoint &fp, int fd, const void *data,
               std::size_t size, int flags);

/** read(2) with injection; ShortWrite caps the transfer. */
ssize_t fpRecv(FailPoint &fp, int fd, void *data, std::size_t size);

/**
 * Fire @p fp and throw on an injected failure: IoError(@p op,
 * @p path, the outcome's errno) for errno-shaped outcomes (short
 * writes count as EIO here), std::bad_alloc for alloc. For sites
 * guarding whole-file operations (trace export, shard-merge reads)
 * where no single syscall is wrapped.
 */
void fpCheck(FailPoint &fp, const char *op, const std::string &path);

/**
 * write(2) the whole buffer through @p fp with bounded
 * retry-with-backoff for the transient outcomes: EINTR and short
 * writes retry (with an exponential microsleep once they repeat
 * without progress); everything else -- and a transient storm that
 * exhausts the bound -- throws IoError carrying the errno. Does NOT
 * fsync; durability is the caller's separate, separately-injectable
 * step.
 */
void fpWriteAll(FailPoint &fp, int fd, const std::string &data,
                const std::string &path);

/** Consecutive zero-progress attempts fpWriteAll tolerates before
 *  escalating a transient failure to IoError. */
constexpr std::uint32_t failPointTransientRetryLimit = 64;

} // namespace hpim::harness

#endif // HPIM_HARNESS_FAILPOINT_HH
