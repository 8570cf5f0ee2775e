#include "trace.hh"

#include <atomic>
#include <fstream>
#include <stdexcept>

#include "harness/json_writer.hh"

namespace perfbench {

namespace {

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<std::int64_t> tlsOpen;

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

} // namespace

Tracer::Tracer() : _origin(Clock::now()) {}

std::int64_t
Tracer::open(const char *name, std::uint64_t group)
{
    Span span;
    span.name = name;
    span.group = group;
    span.parent = tlsOpen.empty() ? -1 : tlsOpen.back();
    span.thread = threadNumber();
    std::int64_t index = 0;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        index = static_cast<std::int64_t>(_spans.size());
        _spans.push_back(span);
        // Stamp under the lock so the push's cost lands before start.
        _spans.back().start = Clock::now();
    }
    tlsOpen.push_back(index);
    return index;
}

void
Tracer::close(std::int64_t index)
{
    const Clock::time_point now = Clock::now();
    tlsOpen.pop_back();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans[static_cast<std::size_t>(index)].end = now;
}

std::int64_t
Tracer::add(const char *name, std::uint64_t group, std::int64_t parent,
            Clock::time_point start, Clock::time_point end)
{
    Span span;
    span.name = name;
    span.group = group;
    span.parent = parent;
    span.thread = threadNumber();
    span.start = start;
    span.end = end;
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(span);
    return static_cast<std::int64_t>(_spans.size()) - 1;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

std::map<std::string, double>
Tracer::selfMs() const
{
    const std::vector<Span> all = spans();
    std::vector<double> self(all.size(), 0.0);
    for (std::size_t i = 0; i < all.size(); ++i)
        self[i] = msBetween(all[i].start, all[i].end);
    for (const Span &span : all) {
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -=
                msBetween(span.start, span.end);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < all.size(); ++i)
        out[all[i].name] += self[i];
    return out;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::ofstream file(path, std::ios::trunc);
    if (!file)
        throw std::runtime_error("cannot write trace file " + path);
    auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - _origin)
            .count();
    };
    hpim::harness::json::Writer writer(file);
    writer.beginObject();
    writer.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        writer.beginObject();
        writer.field("name", span.name);
        writer.field("ph", "X");
        writer.field("pid", std::int64_t(1));
        writer.field("tid", std::int64_t(span.thread));
        writer.field("ts", us(span.start));
        writer.field("dur", us(span.end) - us(span.start));
        writer.key("args").beginObject();
        writer.field("id", span.group);
        writer.field("span", std::int64_t(i));
        writer.field("parent", span.parent);
        writer.endObject();
        writer.endObject();
    }
    writer.endArray();
    writer.field("displayTimeUnit", "ms");
    writer.endObject();
    file << "\n";
    if (!file)
        throw std::runtime_error("error writing trace file " + path);
}

} // namespace perfbench
