/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own files, around the calls
 * it makes into each layer's public functions; nothing inside the
 * simulator is instrumented. obs::TraceSession and
 * obs::MetricsRegistry are deliberately not used: attaching either
 * suspends sim::MemoCache, so a run observed through them would be a
 * different program from the one measured untraced.
 *
 * A span has a name, a start, an end, a parent and a group id (the
 * sweep point or served request it belongs to). Spans nest per thread
 * through ScopedSpan; a layer's self time is its spans' durations
 * minus the parts covered by their child spans. The whole recording
 * stays in memory until writeChromeTrace() at the end of the run.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One recorded interval. */
struct Span
{
    const char *name = "";     ///< layer name; a string literal
    std::uint64_t group = 0;   ///< point / request id
    std::int64_t parent = -1;  ///< index of the enclosing span
    std::uint32_t thread = 0;  ///< recorder-assigned thread number
    Clock::time_point start{};
    Clock::time_point end{};
};

/** Thread-safe span store; see file comment. */
class Tracer
{
  public:
    Tracer();

    /** Open a span on the calling thread; @return its index. */
    std::int64_t open(const char *name, std::uint64_t group);
    /** Close the span @p index opened on the calling thread. */
    void close(std::int64_t index);
    /** Record a finished span with explicit times; @return its
     *  index. */
    std::int64_t add(const char *name, std::uint64_t group,
                     std::int64_t parent, Clock::time_point start,
                     Clock::time_point end);

    /** Every span recorded so far (copy). */
    std::vector<Span> spans() const;

    /** Self time in milliseconds, summed per span name. */
    std::map<std::string, double> selfMs() const;

    /** Write the recording as a Chrome trace JSON file. */
    void writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point _origin;
    mutable std::mutex _mutex;
    std::vector<Span> _spans; ///< guarded by _mutex
};

/** RAII span; a null tracer makes it a no-op (untraced legs). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, std::uint64_t group)
        : _tracer(tracer),
          _index(tracer ? tracer->open(name, group) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (_tracer)
            _tracer->close(_index);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t index() const { return _index; }

  private:
    Tracer *_tracer;
    std::int64_t _index;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
