/**
 * @file
 * MetricsRegistry: named counters, gauges and histograms that
 * simulator components register into, snapshotted into the versioned
 * execution report (schema v2 adds a "metrics" array).
 *
 * Like TraceSession, a registry is attached process-wide and looked
 * up with one relaxed atomic load; with none attached every
 * instrument call is a nullptr test and the run is bit-identical to
 * an uninstrumented build. Instruments are lock-free atomics so the
 * sweep thread pool can hit them concurrently, but note the
 * determinism caveat: a *global* registry accumulating across
 * parallel sweep points interleaves nondeterministically, so
 * per-report metrics are only captured for single-run tools
 * (hpim_cli) -- SweepRunner never snapshots the registry into
 * per-point reports.
 *
 * Histograms bucket by power of two: value v lands in bucket
 * ilogb(v) clamped to [-64, 63], stored at index ilogb+64. That is
 * coarse but needs no a-priori range and serializes sparsely.
 */

#ifndef HPIM_OBS_METRICS_HH
#define HPIM_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hpim::obs {

/** What a MetricSample describes. */
enum class MetricKind : std::uint8_t
{
    Counter,   ///< monotonically increasing event count
    Gauge,     ///< last-written level
    Histogram, ///< distribution over log2 buckets
};

/** @return stable wire name ("counter"/"gauge"/"histogram"). */
const char *metricKindName(MetricKind kind);

/** Number of log2 buckets a histogram keeps (ilogb -64 .. 63). */
inline constexpr std::size_t kHistogramBuckets = 128;

/** One [bucket index, count] pair of a sparse histogram. */
struct HistogramBucket
{
    std::uint32_t index = 0;
    std::uint64_t count = 0;

    bool
    operator==(const HistogramBucket &other) const
    {
        return index == other.index && count == other.count;
    }
};

/**
 * A point-in-time copy of one instrument, the unit of report
 * serialization. Counter uses `count`; Gauge uses `value`; Histogram
 * uses count/sum/min/max/buckets.
 */
struct MetricSample
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t count = 0;
    double value = 0.0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<HistogramBucket> buckets;

    bool operator==(const MetricSample &other) const;
};

/** Monotonic event counter. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/** Last-written level (queue depth, alive units, ...). */
class Gauge
{
  public:
    void
    set(double v)
    {
        _value.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> _value{0.0};
};

/** Log2-bucketed distribution; see file comment for the binning. */
class Histogram
{
  public:
    Histogram();

    void observe(double value);

    std::uint64_t count() const;
    double sum() const;
    double min() const;
    double max() const;

    /** Non-empty buckets as [index, count], index ascending. */
    std::vector<HistogramBucket> buckets() const;

  private:
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> _buckets;
    std::atomic<std::uint64_t> _count{0};
    std::atomic<double> _sum{0.0};
    std::atomic<double> _min;
    std::atomic<double> _max;
};

/**
 * The registry: owns instruments keyed by name. Registration takes a
 * mutex; returned references stay valid for the registry's lifetime,
 * so components register once and update lock-free.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Install as the process-global registry; fatal() if taken. */
    void attach();

    /** Uninstall; instruments stay readable. Idempotent. */
    void detach();

    /** @return the attached registry, or nullptr (one load). */
    static MetricsRegistry *
    current()
    {
        return s_current.load(std::memory_order_acquire);
    }

    /**
     * Find-or-create by name. fatal() if @p name already names an
     * instrument of a different kind.
     */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Point-in-time copy of every instrument, sorted by name. */
    std::vector<MetricSample> snapshot() const;

  private:
    struct Entry;

    Entry &lookup(const std::string &name, MetricKind kind);

    static std::atomic<MetricsRegistry *> s_current;

    mutable std::mutex _mutex;
    std::vector<std::unique_ptr<Entry>> _entries;
    bool _attached = false;
};

} // namespace hpim::obs

#endif // HPIM_OBS_METRICS_HH
