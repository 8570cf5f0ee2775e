/**
 * @file
 * serve: a generator against an in-process hpim_serve Server, driven
 * over its Unix socket.
 *
 * Threads: this one (the generator, which also reads responses), the
 * Server's IO thread and its two workers -- four in all, over two
 * pipelined connections.
 *
 * An untraced run measures throughput and CPU cost closed loop: windows
 * of a fixed seeded request sequence, each sent with a fixed number of
 * requests in flight, so every window does the same work and the
 * daemon never waits for the generator. A lightly loaded daemon's
 * latency is mostly thread wake-ups, which on a shared host follow the
 * neighbours more than the code, so latency is not a gated metric.
 *
 * A traced run adds the open-loop legs. Requests follow a seeded
 * Poisson schedule and are timed from their *scheduled* send time, so
 * a stall also charges the requests queued behind it; how late the
 * generator itself ran is reported as bench.gen_lag_ms.p99. The
 * nominal rate, below capacity, gives latency and its split; the
 * overload rate, past the admission limit, gives goodput and refusals.
 *
 * A served report counts only if its bytes equal the reference computed
 * at set-up through the plain uncached serve::runSimulate path.
 */

#include <algorithm>
#include <array>
#include <map>
#include <cmath>
#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench.hh"
#include "calibrate.hh"
#include "harness/json.hh"
#include "harness/report_io.hh"
#include "nn/graph_io.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/simulate.hh"
#include "sim/memo_cache.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using hpim::serve::ErrorCode;
using hpim::serve::Request;
using hpim::serve::Response;
using hpim::sim::MemoCache;

constexpr std::uint32_t kWorkers = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kAdmissionLimit = 64;
/** Sub-leg lengths. A nominal one holds >= 1000 requests, enough
 *  for its own p99. */
constexpr double kNominalSubLegSec = 2.0;
constexpr double kOverloadSubLegSec = 0.5;
/**
 * Threads the compute probes around a closed-loop window or an
 * overload sub-leg run on: as many as the daemon's workers. Probing on
 * all four busy threads instead overcorrected: with three CPU-bound
 * neighbours on a 4-vCPU host the probe slowed about twice as much as
 * the window did.
 */
constexpr unsigned kProbeThreads = kWorkers;
/** Requests in flight per connection in a closed-loop window: enough
 *  that both workers always have one queued, well under the admission
 *  limit, so nothing is refused. */
constexpr std::size_t kDepthPerConnection = 8;
/** Requests per closed-loop window. */
constexpr std::size_t kWindowRequests = 2000;
/** Graph documents per closed-loop window, each sent once and cold:
 *  few enough that the serve layer, not simulating them, dominates. */
constexpr std::size_t kWindowDocs = 20;
/** Least windows a run makes, whatever --seconds says. */
constexpr std::uint64_t kMinWindows = 3;
/** Graph documents in the request pool: about what a nominal sub-leg
 *  sends, so each is cold there. */
constexpr std::size_t kUserDocs = 200;
/** Offered rates, requests per second. The nominal rate is under a
 *  tenth of the daemon's capacity on a 4-core host; the overload rate
 *  is past it, so the admission queue fills and refuses. */
constexpr double kNominalRps = 1000.0;
constexpr double kOverloadRps = 10000.0;
/**
 * Share of graph documents per leg. The overload leg sends none: with
 * documents in it, the daemon's single IO thread saturates on frame
 * decoding before the admission queue fills, so nothing is refused,
 * the backlog grows in the socket buffers for the whole leg, and
 * goodput falls to the few requests sent before it built up.
 */
constexpr double kNominalDocShare = 0.10;
constexpr double kOverloadDocShare = 0.0;
/** The fixed p99 latency limit goodput counts against. */
constexpr double kLatencyLimitMs = 20.0;
constexpr int kSetups = 5;
/** How long after the last scheduled send stragglers may answer. */
constexpr auto kDrainWait = std::chrono::seconds(20);

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** One non-blocking connection to the daemon. */
class Connection
{
  public:
    Connection() = default;
    ~Connection()
    {
        if (_fd >= 0)
            ::close(_fd);
    }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    void
    open(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("socket path too long: " + path);
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        _fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (_fd < 0
            || ::connect(_fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr)
                   != 0
            || ::fcntl(_fd, F_SETFL, O_NONBLOCK) != 0) {
            throw std::runtime_error("connect " + path + ": "
                                     + std::strerror(errno));
        }
    }

    int fd() const { return _fd; }
    bool writing() const { return _woff < _wbuf.size(); }
    void queue(const std::string &payload)
    {
        hpim::serve::appendFrame(_wbuf, payload);
    }

    /** Send what the socket takes; false when the peer is gone. */
    bool
    flush()
    {
        while (writing()) {
            const ssize_t n =
                ::send(_fd, _wbuf.data() + _woff, _wbuf.size() - _woff,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n < 0)
                return errno == EAGAIN || errno == EWOULDBLOCK;
            _woff += static_cast<std::size_t>(n);
        }
        _wbuf.clear();
        _woff = 0;
        return true;
    }

    /** Read what is there and append whole response frames to
     *  @p frames; false when the peer is gone or framing broke. */
    bool
    receive(std::vector<std::string> &frames)
    {
        char chunk[65536];
        while (true) {
            const ssize_t n = ::recv(_fd, chunk, sizeof chunk,
                                     MSG_DONTWAIT);
            if (n == 0)
                return false;
            if (n < 0) {
                if (errno != EAGAIN && errno != EWOULDBLOCK)
                    return false;
                break;
            }
            _rbuf.append(chunk, static_cast<std::size_t>(n));
        }
        std::size_t off = 0;
        while (true) {
            const auto split = hpim::serve::splitFrame(
                std::string_view(_rbuf).substr(off),
                hpim::serve::defaultMaxFrameBytes);
            if (split.status == hpim::serve::FrameSplit::Status::Invalid)
                return false;
            if (split.status != hpim::serve::FrameSplit::Status::Frame)
                break;
            frames.emplace_back(split.payload);
            off += split.frameEnd;
        }
        _rbuf.erase(0, off);
        return true;
    }

  private:
    int _fd = -1;
    std::string _wbuf;
    std::size_t _woff = 0;
    std::string _rbuf;
};

/** One scheduled request and what became of it. */
struct Outcome
{
    std::size_t spec = 0;          ///< index into the request pool
    Clock::time_point due{};
    Clock::time_point sendStart{}; ///< frame assembly start
    Clock::time_point sendEnd{};   ///< frame queued
    Clock::time_point received{};
    bool answered = false;
    std::string payload;           ///< raw response frame
};

/** A response frame as it arrived; matched to its request later. */
struct Arrival
{
    Clock::time_point at{};
    std::string payload;
};

/** What runLeg saw: the schedule and the frames that came back. */
struct LegRun
{
    std::vector<Outcome> requests;
    std::vector<Arrival> arrivals;
};

/**
 * One pool spec's request payload, encoded once at set-up through
 * serve::encodeRequest, split around its id so the generator only
 * splices in each request's id and spends no time encoding.
 */
struct RequestTemplate
{
    std::string head; ///< up to and including `"id":`
    std::string tail; ///< after the id digits
    double encodeUs = 0.0;
};

RequestTemplate
requestTemplate(const hpim::serve::SimulateSpec &spec)
{
    constexpr std::uint64_t kSentinel = 987654321987654321ULL;
    Request request;
    request.id = kSentinel;
    request.kind = hpim::serve::RequestKind::Simulate;
    request.sim = spec;
    const Clock::time_point t0 = Clock::now();
    const std::string payload = hpim::serve::encodeRequest(request);
    RequestTemplate t;
    t.encodeUs = msBetween(t0, Clock::now()) * 1e3;
    const std::string id_field = "\"id\":" + std::to_string(kSentinel);
    const std::size_t at = payload.find(id_field);
    if (at == std::string::npos)
        throw std::runtime_error("request encoding has no id field");
    t.head = payload.substr(0, at + 5);
    t.tail = payload.substr(at + id_field.size());
    return t;
}

/**
 * Send @p mix on the Poisson @p offsets over kConnections pipelined
 * connections and collect every response. Request ids are
 * @p id_base + index.
 */
LegRun
runLeg(const std::string &socket_path, const std::vector<double> &offsets,
       const std::vector<std::size_t> &mix,
       const std::vector<RequestTemplate> &templates,
       std::uint64_t id_base)
{
    std::array<Connection, kConnections> conns;
    for (Connection &conn : conns)
        conn.open(socket_path);

    const std::size_t n = offsets.size();
    LegRun run;
    std::vector<Outcome> &out = run.requests;
    out.resize(n);
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].spec = mix[i];
        out[i].due = start
                     + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offsets[i]));
    }
    const Clock::time_point give_up =
        (n ? out.back().due : start) + kDrainWait;

    std::size_t next = 0, answered = 0;
    std::vector<std::string> frames;
    std::array<pollfd, kConnections> fds{};
    while (answered < n) {
        Clock::time_point now = Clock::now();
        while (next < n && out[next].due <= now) {
            const RequestTemplate &t = templates[out[next].spec];
            out[next].sendStart = now;
            conns[next % kConnections].queue(
                t.head + std::to_string(id_base + next) + t.tail);
            now = Clock::now();
            out[next].sendEnd = now;
            ++next;
        }
        for (Connection &conn : conns) {
            if (!conn.flush())
                throw std::runtime_error("daemon closed a connection");
        }
        if (now > give_up)
            break;
        const Clock::duration wait =
            next < n ? out[next].due - now
                     : std::chrono::duration_cast<Clock::duration>(
                           std::chrono::milliseconds(50));
        const auto ns = std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(wait)
                   .count());
        const timespec timeout{static_cast<time_t>(ns / 1'000'000'000),
                               static_cast<long>(ns % 1'000'000'000)};
        for (std::size_t c = 0; c < kConnections; ++c) {
            fds[c].fd = conns[c].fd();
            fds[c].events = static_cast<short>(
                POLLIN | (conns[c].writing() ? POLLOUT : 0));
            fds[c].revents = 0;
        }
        if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0
            && errno != EINTR) {
            throw std::runtime_error(std::string("ppoll: ")
                                     + std::strerror(errno));
        }
        for (std::size_t c = 0; c < kConnections; ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            frames.clear();
            const bool alive = conns[c].receive(frames);
            const Clock::time_point at = Clock::now();
            for (std::string &frame : frames)
                run.arrivals.push_back({at, std::move(frame)});
            answered += frames.size();
            if (!alive)
                throw std::runtime_error("daemon closed a connection");
        }
    }
    return run;
}

/**
 * Send @p mix closed loop over kConnections pipelined connections,
 * keeping kDepthPerConnection requests in flight on each, and collect
 * every response. A request's `due` is its send time. Request ids are
 * @p id_base + index.
 */
LegRun
runClosedLoop(const std::string &socket_path,
              const std::vector<std::size_t> &mix,
              const std::vector<RequestTemplate> &templates,
              std::uint64_t id_base)
{
    std::array<Connection, kConnections> conns;
    for (Connection &conn : conns)
        conn.open(socket_path);

    const std::size_t n = mix.size();
    LegRun run;
    std::vector<Outcome> &out = run.requests;
    out.resize(n);
    const Clock::time_point give_up = Clock::now() + kDrainWait;
    std::array<std::size_t, kConnections> in_flight{};
    std::size_t next = 0, answered = 0;
    std::vector<std::string> frames;
    std::array<pollfd, kConnections> fds{};
    while (answered < n) {
        for (std::size_t c = 0; c < kConnections; ++c) {
            while (next < n && in_flight[c] < kDepthPerConnection) {
                Outcome &o = out[next];
                const RequestTemplate &t = templates[mix[next]];
                o.spec = mix[next];
                o.due = o.sendStart = Clock::now();
                conns[c].queue(t.head + std::to_string(id_base + next)
                               + t.tail);
                o.sendEnd = Clock::now();
                ++in_flight[c];
                ++next;
            }
            if (!conns[c].flush())
                throw std::runtime_error("daemon closed a connection");
        }
        if (Clock::now() > give_up)
            break;
        for (std::size_t c = 0; c < kConnections; ++c) {
            fds[c].fd = conns[c].fd();
            fds[c].events = static_cast<short>(
                POLLIN | (conns[c].writing() ? POLLOUT : 0));
            fds[c].revents = 0;
        }
        if (::poll(fds.data(), fds.size(), 50) < 0 && errno != EINTR)
            throw std::runtime_error(std::string("poll: ")
                                     + std::strerror(errno));
        for (std::size_t c = 0; c < kConnections; ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            frames.clear();
            const bool alive = conns[c].receive(frames);
            const Clock::time_point at = Clock::now();
            for (std::string &frame : frames)
                run.arrivals.push_back({at, std::move(frame)});
            answered += frames.size();
            in_flight[c] -= std::min(in_flight[c], frames.size());
            if (!alive)
                throw std::runtime_error("daemon closed a connection");
        }
    }
    return run;
}

/** The daemon and everything a run's legs need. */
struct Setup
{
    RequestPool pool;
    std::vector<std::string> refs; ///< jsonString per pool spec
    std::vector<hpim::rt::ExecutionReport> refReports;
    std::vector<RequestTemplate> templates; ///< per pool spec
    std::unique_ptr<hpim::serve::Server> server;
    std::thread serverThread;

    Setup() = default;
    Setup(const Setup &) = delete;
    Setup &operator=(const Setup &) = delete;
    ~Setup() { stop(); }

    void
    stop()
    {
        if (server == nullptr)
            return;
        server->requestStop();
        serverThread.join();
        server.reset();
    }
};

hpim::serve::Client
client(const std::string &socket_path)
{
    hpim::serve::ClientOptions options;
    options.socketPath = socket_path;
    options.ioTimeoutMs = 60'000.0;
    return hpim::serve::Client(options);
}

hpim::serve::Response
call(const std::string &socket_path, const Request &request)
{
    return client(socket_path).call(request);
}

/** Send every built-in spec once, closed loop over one connection, so
 *  the leg starts with a warm memo cache; @return responses that
 *  mismatched. */
std::size_t
warmUp(const std::string &socket_path, const Setup &setup)
{
    hpim::serve::Client warm_client = client(socket_path);
    std::size_t bad = 0;
    for (std::size_t spec : setup.pool.builtin) {
        Request request;
        request.id = spec + 1;
        request.kind = hpim::serve::RequestKind::Simulate;
        request.sim = setup.pool.specs[spec];
        const Response r = warm_client.call(request);
        if (!r.ok || !r.hasReport
            || hpim::harness::jsonString(r.report) != setup.refs[spec])
            ++bad;
    }
    return bad;
}

std::unique_ptr<Setup>
setUp(const RunOptions &options, std::size_t &warm_failures)
{
    auto setup = std::make_unique<Setup>();
    setup->pool = requestPool(options.seed, kUserDocs);
    MemoCache::setEnabled(false);
    for (const hpim::serve::SimulateSpec &spec : setup->pool.specs) {
        setup->refReports.push_back(hpim::serve::runSimulate(spec));
        setup->refs.push_back(
            hpim::harness::jsonString(setup->refReports.back()));
    }
    MemoCache::setEnabled(true);
    MemoCache::instance().clear();
    for (const hpim::serve::SimulateSpec &spec : setup->pool.specs)
        setup->templates.push_back(requestTemplate(spec));

    hpim::serve::ServerOptions server_options;
    server_options.socketPath = options.socketPath;
    server_options.workers = kWorkers;
    server_options.admissionLimit = kAdmissionLimit;
    setup->server =
        std::make_unique<hpim::serve::Server>(server_options);
    setup->serverThread =
        std::thread([server = setup->server.get()] { server->run(); });
    warm_failures += warmUp(options.socketPath, *setup);
    return setup;
}

/** Per-request numbers of one leg, merged over its sub-legs. */
struct LegStats
{
    std::size_t requests = 0;
    std::size_t ok = 0;
    std::size_t refused = 0;   ///< overloaded / deadline (overload leg)
    std::size_t failed = 0;
    std::size_t withinLimit = 0;
    /** Per sub-leg: ok responses within the latency limit per second
     *  of offered schedule; latency percentiles. */
    std::vector<double> goodRate, p50Ms, p99Ms;
    std::vector<double> rawLatencyMs, scales;
    std::vector<double> latencyMs, queueMs, runMs, ioMs, lagMs;
    std::vector<double> parseUs;
    bool thinP99 = false;      ///< a sub-leg p99 lacks tail samples
    std::map<std::string, std::size_t> errors; ///< failures by kind
    SimCounters counters;      ///< over ok reports, in schedule order
    std::vector<std::size_t> okSpecs; ///< pool spec of each ok report
};

/**
 * Match each arrival of @p run to its request by id, check every
 * report against its reference, and fold the sub-leg into @p stats
 * with host times scaled to reference-host time by @p scale
 * (calibrate.hh). Traces the requests when @p tracer is set.
 */
void
analyze(LegRun &run, const Setup &setup, std::uint64_t id_base,
        bool nominal, double scale, Tracer *tracer, LegStats &stats)
{
    std::vector<Outcome> &out = run.requests;
    const std::size_t requests = out.size();
    const std::size_t good_before = stats.withinLimit;
    const std::size_t latencies_before = stats.latencyMs.size();
    stats.requests += requests;
    std::vector<Response> responses(requests);
    for (Arrival &arrival : run.arrivals) {
        const Clock::time_point t0 = Clock::now();
        Response response;
        try {
            response = hpim::serve::parseResponse(arrival.payload);
        } catch (const hpim::serve::ProtocolError &) {
            ++stats.failed;
            continue;
        }
        const Clock::time_point t1 = Clock::now();
        stats.parseUs.push_back(msBetween(t0, t1) * 1e3);
        if (response.id < id_base || response.id - id_base >= requests
            || out[response.id - id_base].answered) {
            ++stats.failed;
            continue;
        }
        if (tracer != nullptr)
            tracer->add("serve.protocol.parse", response.id, -1, t0, t1);
        const std::size_t i = response.id - id_base;
        out[i].answered = true;
        out[i].received = arrival.at;
        out[i].payload = std::move(arrival.payload);
        responses[i] = std::move(response);
    }

    for (std::size_t i = 0; i < requests; ++i) {
        const Outcome &o = out[i];
        const Response &r = responses[i];
        stats.lagMs.push_back(msBetween(o.due, o.sendStart));
        if (!o.answered) {
            ++stats.failed;
            ++stats.errors["unanswered"];
            continue;
        }
        const double latency = msBetween(o.due, o.received) * scale;
        stats.latencyMs.push_back(latency);
        stats.rawLatencyMs.push_back(msBetween(o.due, o.received));
        if (!r.ok) {
            // A refusal is the daemon's typed answer under load, not a
            // wrong output: it counts in failed_frac and against the
            // latency limit, not in `failed`. None is expected at the
            // nominal rate, so one there is listed.
            const bool refusal = r.code == ErrorCode::Overloaded
                                 || r.code == ErrorCode::DeadlineExceeded;
            ++(refusal ? stats.refused : stats.failed);
            if (!refusal || nominal)
                ++stats.errors[hpim::serve::errorCodeName(r.code)];
            continue;
        }
        const std::string &ref = setup.refs[o.spec];
        const std::string tail = "\"report\":" + ref + "}";
        if (r.kind != "report" || o.payload.size() < tail.size()
            || o.payload.compare(o.payload.size() - tail.size(),
                                 tail.size(), tail)
                   != 0) {
            ++stats.failed;
            ++stats.errors["mismatch"];
            continue;
        }
        ++stats.ok;
        if (latency <= kLatencyLimitMs)
            ++stats.withinLimit;
        stats.queueMs.push_back(r.queueMs * scale);
        stats.runMs.push_back(r.runMs * scale);
        stats.ioMs.push_back(latency - (r.queueMs + r.runMs) * scale);
        stats.counters.add(setup.refReports[o.spec], ref);
        stats.okSpecs.push_back(o.spec);
        if (tracer != nullptr) {
            // Queue and run are the durations the daemon reports; they
            // are placed back to back just before the response.
            const std::uint64_t id = id_base + i;
            const auto ms = [](double v) {
                return std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(v));
            };
            const std::int64_t req = tracer->add(
                "serve.request", id, -1, o.due, o.received);
            tracer->add("serve.send", id, req, o.sendStart, o.sendEnd);
            const Clock::time_point run_start = o.received - ms(r.runMs);
            tracer->add("serve.run", id, req, run_start, o.received);
            tracer->add("serve.queue", id, req,
                        run_start - ms(r.queueMs), run_start);
        }
    }
    if (requests > 1) {
        const double offered_sec =
            msBetween(out.front().due, out.back().due) / 1e3;
        stats.goodRate.push_back(
            static_cast<double>(stats.withinLimit - good_before)
            / (offered_sec * scale));
        stats.scales.push_back(scale);
        const std::vector<double> sub(
            stats.latencyMs.begin()
                + static_cast<std::ptrdiff_t>(latencies_before),
            stats.latencyMs.end());
        stats.p50Ms.push_back(percentile(sub, 0.50));
        stats.p99Ms.push_back(percentile(sub, 0.99));
        if (!percentileSupported(sub.size(), 0.99))
            stats.thinP99 = true;
    }
}

/** Daemon `stats` counters summed over sub-legs. */
struct StatDeltas
{
    std::uint64_t hits = 0, misses = 0, partialHits = 0, evictions = 0;
    std::uint64_t rejectedOverload = 0, deadline = 0;

    void
    add(const hpim::harness::json::Value &before,
        const hpim::harness::json::Value &after)
    {
        auto delta = [&](const hpim::harness::json::Value &b,
                         const hpim::harness::json::Value &a,
                         const char *field) {
            return a.at(field).asUInt64() - b.at(field).asUInt64();
        };
        const auto &memo_before = before.at("memo");
        const auto &memo_after = after.at("memo");
        hits += delta(memo_before, memo_after, "hits");
        misses += delta(memo_before, memo_after, "misses");
        partialHits += delta(memo_before, memo_after, "partial_hits");
        evictions += delta(memo_before, memo_after, "evictions");
        rejectedOverload += delta(before, after, "rejected_overload");
        deadline += delta(before, after, "deadline_queued")
                    + delta(before, after, "deadline_running");
    }
};

/** The daemon's `stats` object. */
hpim::harness::json::Value
daemonStats(const std::string &socket_path)
{
    Request request;
    request.id = 1;
    request.kind = hpim::serve::RequestKind::Stats;
    const Response r = call(socket_path, request);
    if (!r.ok)
        throw std::runtime_error("stats request failed: " + r.message);
    return hpim::harness::json::parse(r.statsJson);
}

std::string
samplesNote(std::size_t n)
{
    return std::to_string(n) + " samples";
}

} // namespace

RunResult
runServe(const RunOptions &options)
{
    RunResult result;
    std::vector<double> setup_sec;
    std::unique_ptr<Setup> setup;
    std::size_t warm_failures = 0;
    for (int k = 0; k < kSetups; ++k) {
        if (setup != nullptr)
            setup->stop();
        setup.reset();
        MemoCache::instance().clear();
        const double probe_before = probeMs(1);
        const Clock::time_point start = Clock::now();
        setup = setUp(options, warm_failures);
        setup_sec.push_back(msBetween(start, Clock::now()) / 1e3
                            * referenceScale(probe_before, probeMs(1)));
    }
    result.attempted += kSetups * setup->pool.builtin.size();
    result.failed += warm_failures;
    const std::string &socket = options.socketPath;
    // Every window and nominal sub-leg starts alike: built-in models
    // memo-warm, graph documents cold.
    auto warm = [&] {
        MemoCache::instance().clear();
        result.failed += warmUp(socket, *setup);
        result.attempted += setup->pool.builtin.size();
    };

    if (!options.trace) {
        // Closed-loop windows until the time is up, each bracketed by
        // compute probes (kProbeThreads). Reported numbers are medians
        // over windows, so one host hiccup moves one sample rather than
        // the run.
        const std::vector<std::size_t> mix =
            windowMix(setup->pool, options.seed, kWindowRequests,
                      kWindowDocs);
        LegStats closed;
        std::vector<double> rate, raw_rate, cpu_us, raw_cpu_us, scales;
        const Clock::time_point start = Clock::now();
        for (std::uint64_t w = 0; w < kMinWindows
                                  || msBetween(start, Clock::now())
                                         < options.seconds * 1e3;
             ++w) {
            warm();
            const std::uint64_t id_base = (w + 1) * 1'000'000;
            const std::size_t ok_before = closed.ok;
            const std::size_t failed_before = closed.failed + closed.refused;
            const double probe_before = probeMs(kProbeThreads);
            const double cpu_probe_before = probeCpuMs(kProbeThreads);
            const double cpu_before = processCpuSec();
            const Clock::time_point t0 = Clock::now();
            LegRun run = runClosedLoop(socket, mix, setup->templates, id_base);
            const double wall_sec = msBetween(t0, Clock::now()) / 1e3;
            const double cpu_sec = processCpuSec() - cpu_before;
            const double scale =
                referenceScale(probe_before, probeMs(kProbeThreads));
            const double cpu_scale =
                cpuScale(cpu_probe_before, probeCpuMs(kProbeThreads));
            analyze(run, *setup, id_base, true, 1.0, nullptr, closed);
            const auto ok = static_cast<double>(closed.ok - ok_before);
            rate.push_back(ok / (wall_sec * scale));
            raw_rate.push_back(ok / wall_sec);
            cpu_us.push_back(ok > 0 ? cpu_sec * 1e6 / ok * cpu_scale : 0.0);
            raw_cpu_us.push_back(ok > 0 ? cpu_sec * 1e6 / ok : 0.0);
            scales.push_back(scale);
            result.attempted += mix.size();
            result.failed += closed.failed + closed.refused - failed_before;
        }
        setup->stop();
        for (const auto &[kind, count] : closed.errors) {
            result.notes.push_back("failures: " + std::to_string(count)
                                   + " " + kind);
        }
        char line[256];
        std::snprintf(line, sizeof line,
                      "closed loop: %zu windows of %zu requests, %zu in "
                      "flight; raw host time: points_per_s %.6g, "
                      "cpu_us_per_point %.6g; compute scale %.4f",
                      rate.size(), mix.size(),
                      kDepthPerConnection * kConnections, median(raw_rate),
                      median(raw_cpu_us), median(scales));
        result.notes.push_back(line);
        auto windows_note = [&](const std::vector<double> &values) {
            char note[96];
            std::snprintf(note, sizeof note,
                          "median of %zu windows, IQR %.2f%% of median",
                          values.size(), 100.0 * relativeIqr(values));
            return std::string(note);
        };
        result.endToEnd = {
            {"points_per_s", median(rate), "1/s",
             "ok responses per second, " + windows_note(rate)},
            {"cpu_us_per_point", median(cpu_us), "us",
             "process CPU per ok response, " + windows_note(cpu_us)},
            {"setup_s", median(setup_sec), "s",
             "median of " + std::to_string(kSetups) + " set-ups"},
            {"peak_rss_mb", peakRssMb(), "MB", "getrusage ru_maxrss"},
        };
        return result;
    }

    // Rounds of (nominal sub-leg, the same again traced, overload
    // sub-leg) spread the legs over the whole run, so host-speed drift
    // -- tens of percent over seconds on a shared host -- reaches them
    // alike. Reported numbers are medians over sub-legs.
    const double round_sec = 2 * kNominalSubLegSec + kOverloadSubLegSec;
    const auto rounds = static_cast<std::size_t>(
        std::max(1.0, std::floor(0.8 * options.seconds / round_sec)));
    auto tracer = std::make_unique<Tracer>();
    LegStats nominal, traced, overload;
    StatDeltas traced_deltas, overload_deltas;
    std::size_t doc_cursor = 0;

    // A nominal sub-leg is latency-bound and scaled by wake probes; an
    // overload one keeps all four threads busy and is scaled by compute
    // probes on as many threads.
    auto sub_leg = [&](std::uint64_t stream, double rate, double seconds,
                       double doc_share, std::size_t &cursor,
                       bool nominal_leg, Tracer *leg_tracer,
                       LegStats &stats) {
        const std::vector<double> offsets =
            poissonSchedule(options.seed, stream, rate, seconds);
        const std::vector<std::size_t> mix = requestMix(
            setup->pool, options.seed, stream, offsets.size(), doc_share,
            cursor);
        const std::uint64_t id_base = (stream + 1) * 1'000'000;
        const std::size_t requests_before = stats.requests;
        const std::size_t failed_before = stats.failed;
        const double probe_before = nominal_leg
                                        ? wakeProbeUs()
                                        : probeMs(kProbeThreads);
        LegRun run = runLeg(socket, offsets, mix, setup->templates, id_base);
        const double scale =
            nominal_leg ? wakeScale(probe_before, wakeProbeUs())
                        : referenceScale(probe_before,
                                         probeMs(kProbeThreads));
        analyze(run, *setup, id_base, nominal_leg, scale, leg_tracer,
                stats);
        result.attempted += stats.requests - requests_before;
        result.failed += stats.failed - failed_before;
    };
    for (std::size_t r = 0; r < rounds; ++r) {
        const std::size_t round_cursor = doc_cursor;
        warm();
        sub_leg(2 * r, kNominalRps, kNominalSubLegSec, kNominalDocShare,
                doc_cursor, true, nullptr, nominal);
        std::size_t cursor = round_cursor;
        warm();
        const auto traced_before = daemonStats(socket);
        sub_leg(2 * r, kNominalRps, kNominalSubLegSec, kNominalDocShare,
                cursor, true, tracer.get(), traced);
        traced_deltas.add(traced_before, daemonStats(socket));
        const auto before = daemonStats(socket);
        std::size_t no_docs = 0;
        sub_leg(2 * r + 1, kOverloadRps, kOverloadSubLegSec, kOverloadDocShare, no_docs,
                false, nullptr, overload);
        overload_deltas.add(before, daemonStats(socket));
    }
    setup->stop();
    if (traced.counters.digest != nominal.counters.digest)
        result.problems.push_back("traced reports differ from untraced "
                                  "reports");

    auto frac = [](std::size_t part, std::size_t whole) {
        return whole ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
    };
    char line[256];
    std::snprintf(line, sizeof line,
                  "nominal  %.0f rps offered: %zu sent, %zu ok, "
                  "failed_frac %.6f",
                  kNominalRps, nominal.requests, nominal.ok,
                  frac(nominal.failed, nominal.requests));
    result.notes.push_back(line);
    std::snprintf(line, sizeof line,
                  "overload %.0f rps offered: %zu sent, %zu ok, "
                  "%zu within %.0f ms, %zu refused, failed_frac %.6f "
                  "(refusals counted)",
                  kOverloadRps, overload.requests, overload.ok,
                  overload.withinLimit, kLatencyLimitMs, overload.refused,
                  frac(overload.failed + overload.refused,
                       overload.requests));
    result.notes.push_back(line);
    for (const LegStats *leg : {&nominal, &overload}) {
        for (const auto &[kind, count] : leg->errors) {
            result.notes.push_back(
                std::string(leg == &nominal ? "nominal" : "overload")
                + " failures: " + std::to_string(count) + " " + kind);
        }
    }
    std::snprintf(line, sizeof line,
                  "raw host time: latency_ms.p50 %.6g, p99 %.6g; "
                  "wake scale %.4f, compute scale (overload) %.4f",
                  percentile(nominal.rawLatencyMs, 0.5),
                  percentile(nominal.rawLatencyMs, 0.99),
                  median(nominal.scales), median(overload.scales));
    result.notes.push_back(line);
    std::snprintf(line, sizeof line,
                  "generator lag p99: nominal %.3f ms, overload %.3f ms",
                  percentile(nominal.lagMs, 0.99),
                  percentile(overload.lagMs, 0.99));
    result.notes.push_back(line);

    if (nominal.thinP99)
        result.notes.push_back("warning: a sub-leg's latency p99 has "
                               "under 10 samples beyond it");

    std::vector<Metric> &layers = result.perLayer;
    // The daemon parses and encodes internally; time the same public
    // calls on the same inputs here, after the leg.
    double parse_ms = 0.0, encode_ms = 0.0, doc_bytes = 0.0, docs = 0.0;
    for (std::size_t i = 0; i < traced.okSpecs.size(); ++i) {
        const std::size_t spec = traced.okSpecs[i];
        const std::string &doc = setup->pool.specs[spec].graph;
        if (!doc.empty()) {
            ScopedSpan span(tracer.get(), "nn.graph_io.parse", i);
            const Clock::time_point t0 = Clock::now();
            hpim::nn::loadGraph(doc);
            parse_ms += msBetween(t0, Clock::now());
            doc_bytes += static_cast<double>(doc.size());
            docs += 1.0;
        }
        ScopedSpan span(tracer.get(), "harness.report_io.encode", i);
        const Clock::time_point t0 = Clock::now();
        hpim::harness::jsonString(setup->refReports[spec]);
        encode_ms += msBetween(t0, Clock::now());
    }
    layers.push_back({"nn.graph_io.parse_ms", parse_ms, "ms",
                      "documents of one nominal leg"});
    layers.push_back(
        {"nn.graph_io.parse_mb_per_s",
         parse_ms > 0 ? doc_bytes / 1e6 / (parse_ms / 1e3) : 0.0, "MB/s",
         ""});
    layers.push_back({"nn.graph_io.docs", docs, "count", "per nominal leg"});
    traced.counters.appendMetrics(layers);
    const std::uint64_t lookups =
        traced_deltas.hits + traced_deltas.misses + traced_deltas.partialHits;
    auto count = [&layers](const char *name, std::uint64_t value) {
        layers.push_back({name, static_cast<double>(value), "count",
                          "traced nominal sub-legs"});
    };
    count("sim.memo.hits", traced_deltas.hits);
    count("sim.memo.misses", traced_deltas.misses);
    count("sim.memo.partial_hits", traced_deltas.partialHits);
    count("sim.memo.evictions", traced_deltas.evictions);
    count("sim.memo.lookups", lookups);
    layers.push_back({"sim.memo.hit_ratio",
                      frac(traced_deltas.hits + traced_deltas.partialHits,
                           lookups),
                      "ratio", "(hits + partial hits) / lookups"});
    layers.push_back({"harness.report_io.encode_ms", encode_ms, "ms",
                      "reports of one nominal leg"});
    layers.push_back({"harness.report_io.bytes",
                      static_cast<double>(traced.counters.encodedBytes),
                      "bytes", "per nominal leg"});
    const std::string n_note = samplesNote(traced.queueMs.size());
    layers.push_back({"serve.queue_ms.p50", percentile(traced.queueMs, 0.5),
                      "ms", n_note});
    layers.push_back({"serve.queue_ms.p99",
                      percentile(traced.queueMs, 0.99), "ms", n_note});
    layers.push_back({"serve.run_ms.p50", percentile(traced.runMs, 0.5),
                      "ms", n_note});
    layers.push_back({"serve.run_ms.p99", percentile(traced.runMs, 0.99),
                      "ms", n_note});
    layers.push_back({"serve.io_ms.p50", percentile(traced.ioMs, 0.5), "ms",
                      n_note});
    layers.push_back({"serve.io_ms.p99", percentile(traced.ioMs, 0.99),
                      "ms", n_note});
    std::vector<double> encode_us;
    for (const RequestTemplate &t : setup->templates)
        encode_us.push_back(t.encodeUs);
    layers.push_back({"serve.protocol.encode_us", median(encode_us), "us",
                      "median per distinct request, at set-up"});
    layers.push_back({"serve.protocol.parse_us", median(traced.parseUs),
                      "us", "median per response"});
    layers.push_back({"serve.rejected_overload",
                      static_cast<double>(overload_deltas.rejectedOverload),
                      "count", "overload sub-legs"});
    layers.push_back({"serve.deadline",
                      static_cast<double>(overload_deltas.deadline), "count",
                      "overload sub-legs"});
    layers.push_back({"bench.gen_lag_ms.p99", percentile(nominal.lagMs, 0.99),
                      "ms", samplesNote(nominal.lagMs.size())});
    layers.push_back(
        {"bench.trace_overhead_pct",
         100.0 * (median(traced.p50Ms) / median(nominal.p50Ms) - 1.0),
         "%", "traced vs untraced nominal p50 latency"});
    layers.push_back({"bench.latency_samples",
                      static_cast<double>(nominal.latencyMs.size()), "count",
                      ""});
    const std::string lat_note =
        "nominal leg, from scheduled send, median of "
        + std::to_string(nominal.p50Ms.size()) + " sub-legs, "
        + samplesNote(nominal.latencyMs.size());
    layers.push_back({"latency_ms.p50", median(nominal.p50Ms), "ms",
                      lat_note});
    layers.push_back({"latency_ms.p99", median(nominal.p99Ms), "ms",
                      lat_note});
    layers.push_back({"goodput_rps", median(overload.goodRate), "1/s",
                      "ok within the latency limit per offered second, "
                      "overload leg, median of "
                          + std::to_string(overload.goodRate.size())
                          + " sub-legs"});
    if (!options.traceOut.empty())
        tracer->writeChromeTrace(options.traceOut);
    return result;
}

} // namespace perfbench
