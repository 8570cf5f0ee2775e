/**
 * @file
 * Structured tracing: a timeline of what every simulated component
 * was doing, exportable as Chrome trace-event JSON (loadable in
 * Perfetto / chrome://tracing).
 *
 * A TraceSession records typed events -- spans (an interval of work
 * on one track), instants (a point occurrence: a fault, a retry) and
 * counters (a sampled value over time, e.g. allocatable fixed-pool
 * units) -- into per-thread buffers, so recording never takes a lock
 * on the hot path once a thread's buffer exists.
 *
 * Instrumented components (rt::Executor, harness::SweepRunner, ...)
 * look up the process-global session via TraceSession::current();
 * when none is attached the lookup is one relaxed atomic load and the
 * instrumentation does nothing, so runs with tracing off are
 * bit-identical to an uninstrumented build.
 *
 * Determinism contract: exported traces are byte-identical for a
 * fixed seed regardless of the sweep worker count. Two mechanisms
 * deliver this:
 *  - every event carries a *scope* (0 = the main run; sweep point i
 *    records under scope i+1, set by TraceSession::Scope in the
 *    worker task) and a per-buffer sequence number. A scope only ever
 *    executes on one thread, so sorting events by (scope, seq)
 *    reproduces each scope's program order independent of which
 *    worker ran it or when;
 *  - timestamps are *simulated* time (or a synthetic per-scope
 *    clock for host-side activity such as sweep bookkeeping), never
 *    wall-clock, so reruns produce identical values.
 * tests/test_obs_determinism.cpp enforces the contract.
 */

#ifndef HPIM_OBS_TRACE_HH
#define HPIM_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace hpim::obs {

/** A trace file that could not be opened or written. Typed (instead
 *  of fatal) so the harness and serve layers can decide the policy:
 *  a lost trace artifact warns, it never kills the run that produced
 *  the actual results. */
struct TraceExportError : std::runtime_error
{
    explicit TraceExportError(const std::string &message)
        : std::runtime_error("obs: " + message)
    {
    }
};

/** Timeline row an event belongs to (a device, the sweep, ...). */
using TrackId = std::uint32_t;

/** Event flavours; mirrors the Chrome trace-event phases used. */
enum class EventKind : std::uint8_t
{
    Span,    ///< interval of work ("X" complete event)
    Instant, ///< point occurrence ("i" instant event)
    Counter, ///< sampled value ("C" counter event)
};

/** One typed key=value annotation attached to an event. */
struct TraceArg
{
    std::string key;
    std::variant<std::int64_t, double, std::string> value;
};

/** One recorded event. Timestamps are seconds of simulated time. */
struct TraceEvent
{
    EventKind kind = EventKind::Instant;
    TrackId track = 0;
    std::uint32_t scope = 0;  ///< 0 = main run; sweep point i -> i+1
    std::uint64_t seq = 0;    ///< per-buffer record order
    double tsSec = 0.0;
    double durSec = 0.0;      ///< spans only
    double value = 0.0;       ///< counters only
    std::string name;
    std::vector<TraceArg> args;
};

/** The recording session. One may be attached process-wide. */
class TraceSession
{
  public:
    TraceSession();
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /**
     * Install this session as the process-global one picked up by
     * instrumented components. fatal() if another is attached.
     */
    void attach();

    /** Uninstall; recorded events stay readable. Idempotent. */
    void detach();

    /** @return the attached session, or nullptr (one relaxed load). */
    static TraceSession *
    current()
    {
        return s_current.load(std::memory_order_acquire);
    }

    /**
     * Intern a track by name ("cpu", "sweep", ...). Tracks are
     * shared across scopes. In-memory ids are assigned in first-
     * intern order, which is racy across sweep workers -- the export
     * remaps them to name-sorted order, so on-disk tids never depend
     * on intern timing.
     */
    TrackId track(const std::string &name);

    /** Record a completed interval [ts, ts+dur] on @p track. */
    void span(TrackId track, std::string name, double ts_sec,
              double dur_sec, std::vector<TraceArg> args = {});

    /** Record a point occurrence. */
    void instant(TrackId track, std::string name, double ts_sec,
                 std::vector<TraceArg> args = {});

    /** Record a sampled value (rendered as a counter track). */
    void counter(TrackId track, std::string name, double ts_sec,
                 double value);

    /**
     * Scope guard: events recorded on this thread while the guard
     * lives carry @p scope. Sweep workers wrap each point in one so
     * the point's events sort together whatever thread ran it.
     */
    class Scope
    {
      public:
        explicit Scope(std::uint32_t scope);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        std::uint32_t _saved;
    };

    /** @return the calling thread's current scope id. */
    static std::uint32_t currentScope();

    /** All events merged across threads, in (scope, seq) order. */
    std::vector<TraceEvent> sortedEvents() const;

    /** Number of events recorded so far (all threads). */
    std::size_t eventCount() const;

    /** Track names indexed by TrackId. */
    std::vector<std::string> trackNames() const;

    /**
     * Write the whole session as Chrome trace-event JSON: metadata
     * names each scope (pid) and track (tid), then every event in
     * deterministic (scope, seq) order. Strictly parseable by
     * harness::json::parse and loadable in Perfetto.
     */
    void exportChromeTrace(std::ostream &os) const;

    /** exportChromeTrace to @p path; throws TraceExportError on an
     *  unopenable path or a failed write. */
    void exportChromeTrace(const std::string &path) const;

    /** One thread's event storage (public for the TLS cache). */
    struct Buffer
    {
        std::vector<TraceEvent> events;
        std::uint64_t nextSeq = 0;
    };

  private:
    Buffer &threadBuffer();
    void record(TraceEvent event);

    static std::atomic<TraceSession *> s_current;

    const std::uint64_t _generation; ///< keys thread-local buffer cache
    mutable std::mutex _mutex;
    std::vector<std::unique_ptr<Buffer>> _buffers;
    std::vector<std::string> _tracks;
    bool _attached = false;
};

} // namespace hpim::obs

#endif // HPIM_OBS_TRACE_HH
