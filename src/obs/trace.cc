#include "obs/trace.hh"

#include <algorithm>
#include <fstream>

#include "harness/json_writer.hh"
#include "sim/logging.hh"

namespace hpim::obs {

namespace {

/**
 * Thread-local cache of "my buffer inside session generation G".
 * A generation counter rather than the session pointer keys the
 * cache so a new session at a recycled address cannot alias a stale
 * buffer pointer.
 */
struct ThreadSlot
{
    std::uint64_t generation = 0;
    TraceSession::Buffer *buffer = nullptr;
};

thread_local ThreadSlot t_slot;
thread_local std::uint32_t t_scope = 0;

std::atomic<std::uint64_t> s_next_generation{1};

} // namespace

std::atomic<TraceSession *> TraceSession::s_current{nullptr};

TraceSession::TraceSession()
    : _generation(s_next_generation.fetch_add(1, std::memory_order_relaxed))
{
}

TraceSession::~TraceSession()
{
    detach();
}

void
TraceSession::attach()
{
    TraceSession *expected = nullptr;
    fatal_if(!s_current.compare_exchange_strong(expected, this,
                                                std::memory_order_acq_rel),
             "obs: a TraceSession is already attached");
    _attached = true;
}

void
TraceSession::detach()
{
    if (!_attached)
        return;
    TraceSession *expected = this;
    s_current.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_acq_rel);
    _attached = false;
}

TraceSession::Buffer &
TraceSession::threadBuffer()
{
    if (t_slot.generation == _generation)
        return *t_slot.buffer;
    std::lock_guard<std::mutex> lock(_mutex);
    _buffers.push_back(std::make_unique<Buffer>());
    t_slot.generation = _generation;
    t_slot.buffer = _buffers.back().get();
    return *t_slot.buffer;
}

TrackId
TraceSession::track(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (std::size_t i = 0; i < _tracks.size(); ++i) {
        if (_tracks[i] == name)
            return static_cast<TrackId>(i);
    }
    _tracks.push_back(name);
    return static_cast<TrackId>(_tracks.size() - 1);
}

void
TraceSession::record(TraceEvent event)
{
    Buffer &buf = threadBuffer();
    event.scope = t_scope;
    event.seq = buf.nextSeq++;
    buf.events.push_back(std::move(event));
}

void
TraceSession::span(TrackId track, std::string name, double ts_sec,
                   double dur_sec, std::vector<TraceArg> args)
{
    TraceEvent event;
    event.kind = EventKind::Span;
    event.track = track;
    event.tsSec = ts_sec;
    event.durSec = dur_sec;
    event.name = std::move(name);
    event.args = std::move(args);
    record(std::move(event));
}

void
TraceSession::instant(TrackId track, std::string name, double ts_sec,
                      std::vector<TraceArg> args)
{
    TraceEvent event;
    event.kind = EventKind::Instant;
    event.track = track;
    event.tsSec = ts_sec;
    event.name = std::move(name);
    event.args = std::move(args);
    record(std::move(event));
}

void
TraceSession::counter(TrackId track, std::string name, double ts_sec,
                      double value)
{
    TraceEvent event;
    event.kind = EventKind::Counter;
    event.track = track;
    event.tsSec = ts_sec;
    event.value = value;
    event.name = std::move(name);
    record(std::move(event));
}

TraceSession::Scope::Scope(std::uint32_t scope) : _saved(t_scope)
{
    t_scope = scope;
}

TraceSession::Scope::~Scope()
{
    t_scope = _saved;
}

std::uint32_t
TraceSession::currentScope()
{
    return t_scope;
}

std::vector<TraceEvent>
TraceSession::sortedEvents() const
{
    std::vector<TraceEvent> merged;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        std::size_t total = 0;
        for (const auto &buf : _buffers)
            total += buf->events.size();
        merged.reserve(total);
        for (const auto &buf : _buffers)
            merged.insert(merged.end(), buf->events.begin(),
                          buf->events.end());
    }
    // (scope, seq) is a total order: a scope runs on exactly one
    // thread, so within a scope every event came from one buffer and
    // seq reproduces program order. Across scopes the ordering is the
    // sweep-point index, which is seed-determined.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.scope != b.scope)
                             return a.scope < b.scope;
                         return a.seq < b.seq;
                     });
    return merged;
}

std::size_t
TraceSession::eventCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::size_t total = 0;
    for (const auto &buf : _buffers)
        total += buf->events.size();
    return total;
}

std::vector<std::string>
TraceSession::trackNames() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _tracks;
}

namespace {

void
writeArgValue(harness::json::Writer &w, const TraceArg &arg)
{
    w.key(arg.key);
    if (std::holds_alternative<std::int64_t>(arg.value))
        w.value(std::get<std::int64_t>(arg.value));
    else if (std::holds_alternative<double>(arg.value))
        w.value(std::get<double>(arg.value));
    else
        w.value(std::get<std::string>(arg.value));
}

/** Chrome trace events use microsecond timestamps. */
double
toMicros(double seconds)
{
    return seconds * 1e6;
}

} // namespace

void
TraceSession::exportChromeTrace(std::ostream &os) const
{
    const std::vector<TraceEvent> events = sortedEvents();
    const std::vector<std::string> tracks = trackNames();

    // Canonical track numbering. Intern order is first-come across
    // worker threads, hence racy under --jobs > 1; the export remaps
    // every track to its rank in name-sorted order so the emitted tids
    // are a pure function of the track-name set.
    std::vector<std::size_t> order(tracks.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&tracks](std::size_t a, std::size_t b) {
                  return tracks[a] < tracks[b];
              });
    std::vector<TrackId> remap(tracks.size());
    for (std::size_t rank = 0; rank < order.size(); ++rank)
        remap[order[rank]] = static_cast<TrackId>(rank);

    // Which scopes appear? Metadata must name every (pid, tid) pair
    // actually used so Perfetto labels the rows.
    std::vector<std::uint32_t> scopes;
    for (const auto &event : events) {
        if (scopes.empty() || scopes.back() != event.scope)
            scopes.push_back(event.scope);
    }
    // events are scope-sorted, so `scopes` is already unique+sorted.

    harness::json::Writer w(os);
    w.beginObject();
    w.key("traceEvents").beginArray();

    for (std::uint32_t scope : scopes) {
        std::string pname =
            scope == 0 ? std::string("run")
                       : "point " + std::to_string(scope - 1);
        w.beginObject();
        w.field("name", "process_name");
        w.field("ph", "M");
        w.field("pid", scope);
        w.field("tid", std::uint32_t{0});
        w.key("args").beginObject();
        w.field("name", pname);
        w.endObject();
        w.endObject();
        for (std::size_t rank = 0; rank < order.size(); ++rank) {
            w.beginObject();
            w.field("name", "thread_name");
            w.field("ph", "M");
            w.field("pid", scope);
            w.field("tid", static_cast<std::uint32_t>(rank));
            w.key("args").beginObject();
            w.field("name", tracks[order[rank]]);
            w.endObject();
            w.endObject();
            w.beginObject();
            w.field("name", "thread_sort_index");
            w.field("ph", "M");
            w.field("pid", scope);
            w.field("tid", static_cast<std::uint32_t>(rank));
            w.key("args").beginObject();
            w.field("sort_index", static_cast<std::uint64_t>(rank));
            w.endObject();
            w.endObject();
        }
    }

    for (const auto &event : events) {
        w.beginObject();
        w.field("name", event.name);
        switch (event.kind) {
          case EventKind::Span:
            w.field("ph", "X");
            break;
          case EventKind::Instant:
            w.field("ph", "i");
            w.field("s", "t");
            break;
          case EventKind::Counter:
            w.field("ph", "C");
            break;
        }
        w.field("pid", event.scope);
        w.field("tid", remap[event.track]);
        w.field("ts", toMicros(event.tsSec));
        if (event.kind == EventKind::Span)
            w.field("dur", toMicros(event.durSec));
        if (event.kind == EventKind::Counter) {
            w.key("args").beginObject();
            w.field("value", event.value);
            w.endObject();
        } else if (!event.args.empty()) {
            w.key("args").beginObject();
            for (const auto &arg : event.args)
                writeArgValue(w, arg);
            w.endObject();
        }
        w.endObject();
    }

    w.endArray();
    w.endObject();
    os << '\n';
}

void
TraceSession::exportChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw TraceExportError("cannot open trace file '" + path
                               + "'");
    exportChromeTrace(out);
    out.flush();
    if (!out)
        throw TraceExportError("failed writing trace file '" + path
                               + "'");
}

} // namespace hpim::obs
