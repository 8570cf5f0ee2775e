#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace hpim::obs {

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    panic("obs: bad MetricKind ", static_cast<int>(kind));
}

MetricKind
metricKindFromName(const std::string &name)
{
    if (name == "counter")
        return MetricKind::Counter;
    if (name == "gauge")
        return MetricKind::Gauge;
    if (name == "histogram")
        return MetricKind::Histogram;
    fatal("obs: unknown metric kind '", name, "'");
}

bool
MetricSample::operator==(const MetricSample &other) const
{
    return name == other.name && kind == other.kind
        && count == other.count && value == other.value
        && sum == other.sum && min == other.min && max == other.max
        && buckets == other.buckets;
}

namespace {

/** Lock-free fetch_add for atomic<double> (no hardware op pre-C++20
 *  libstdc++ support everywhere, so CAS-loop it). */
void
atomicAdd(std::atomic<double> &target, double delta)
{
    double seen = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(seen, seen + delta,
                                         std::memory_order_relaxed)) {
    }
}

void
atomicMin(std::atomic<double> &target, double candidate)
{
    double seen = target.load(std::memory_order_relaxed);
    while (candidate < seen
           && !target.compare_exchange_weak(seen, candidate,
                                            std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double> &target, double candidate)
{
    double seen = target.load(std::memory_order_relaxed);
    while (candidate > seen
           && !target.compare_exchange_weak(seen, candidate,
                                            std::memory_order_relaxed)) {
    }
}

/** @return the bucket index for @p value; see metrics.hh binning. */
std::size_t
bucketIndex(double value)
{
    if (value == 0.0 || !std::isfinite(value))
        return 0; // 0, inf and nan all land in the lowest bucket
    int exp = std::ilogb(std::fabs(value));
    exp = std::clamp(exp, -64, 63);
    return static_cast<std::size_t>(exp + 64);
}

} // namespace

Histogram::Histogram()
    : _min(std::numeric_limits<double>::infinity()),
      _max(-std::numeric_limits<double>::infinity())
{
    for (auto &bucket : _buckets)
        bucket.store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double value)
{
    _buckets[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    _count.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(_sum, value);
    atomicMin(_min, value);
    atomicMax(_max, value);
}

std::uint64_t
Histogram::count() const
{
    return _count.load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return _sum.load(std::memory_order_relaxed);
}

double
Histogram::min() const
{
    return _min.load(std::memory_order_relaxed);
}

double
Histogram::max() const
{
    return _max.load(std::memory_order_relaxed);
}

std::vector<HistogramBucket>
Histogram::buckets() const
{
    std::vector<HistogramBucket> out;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        std::uint64_t n = _buckets[i].load(std::memory_order_relaxed);
        if (n != 0)
            out.push_back({static_cast<std::uint32_t>(i), n});
    }
    return out;
}

struct MetricsRegistry::Entry
{
    std::string name;
    MetricKind kind;
    Counter counter;
    Gauge gauge;
    Histogram histogram;

    Entry(std::string n, MetricKind k) : name(std::move(n)), kind(k) {}
};

std::atomic<MetricsRegistry *> MetricsRegistry::s_current{nullptr};

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry::~MetricsRegistry()
{
    detach();
}

void
MetricsRegistry::attach()
{
    MetricsRegistry *expected = nullptr;
    fatal_if(!s_current.compare_exchange_strong(expected, this,
                                                std::memory_order_acq_rel),
             "obs: a MetricsRegistry is already attached");
    _attached = true;
}

void
MetricsRegistry::detach()
{
    if (!_attached)
        return;
    MetricsRegistry *expected = this;
    s_current.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_acq_rel);
    _attached = false;
}

MetricsRegistry::Entry &
MetricsRegistry::lookup(const std::string &name, MetricKind kind)
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &entry : _entries) {
        if (entry->name != name)
            continue;
        fatal_if(entry->kind != kind, "obs: metric '", name,
                 "' registered as ", metricKindName(entry->kind),
                 ", requested as ", metricKindName(kind));
        return *entry;
    }
    _entries.push_back(std::make_unique<Entry>(name, kind));
    return *_entries.back();
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return lookup(name, MetricKind::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return lookup(name, MetricKind::Gauge).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return lookup(name, MetricKind::Histogram).histogram;
}

std::vector<MetricSample>
MetricsRegistry::snapshot() const
{
    std::vector<MetricSample> out;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        out.reserve(_entries.size());
        for (const auto &entry : _entries) {
            MetricSample sample;
            sample.name = entry->name;
            sample.kind = entry->kind;
            switch (entry->kind) {
              case MetricKind::Counter:
                sample.count = entry->counter.value();
                break;
              case MetricKind::Gauge:
                sample.value = entry->gauge.value();
                break;
              case MetricKind::Histogram:
                sample.count = entry->histogram.count();
                sample.sum = entry->histogram.sum();
                if (sample.count > 0) {
                    sample.min = entry->histogram.min();
                    sample.max = entry->histogram.max();
                }
                sample.buckets = entry->histogram.buckets();
                break;
            }
            out.push_back(std::move(sample));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
    return out;
}

} // namespace hpim::obs
