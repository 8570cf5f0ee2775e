/**
 * @file
 * hpim_serve tests: framing, request/response codecs, and the
 * daemon's robustness contract -- typed overload rejection, deadline
 * expiry both queued and mid-simulation, bad-request recovery
 * (including a run past the tick clock),
 * oversize-frame rejection, graceful drain (with and without the
 * grace hard-stop), byte-identical served reports (also to concurrent
 * clients), and client reconnect.
 *
 * Each server test runs a real Server on its own scratch socket with
 * the IO loop on a background thread -- the same wiring as the
 * daemon binary minus the signal handlers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "harness/failpoint.hh"
#include "harness/json.hh"
#include "harness/report_io.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/simulate.hh"

namespace {

using namespace hpim;

std::string
scratchSocket(const std::string &tag)
{
    return "/tmp/hpim_test_serve." + std::to_string(::getpid()) + "."
           + tag + ".sock";
}

/** Server + IO thread with unconditional drain on destruction. */
class TestServer
{
  public:
    explicit TestServer(serve::ServerOptions options)
        : _server(std::move(options)),
          _thread([this] { _server.run(); })
    {
    }

    ~TestServer() { stop(); }

    void
    stop()
    {
        _server.requestStop();
        if (_thread.joinable())
            _thread.join();
    }

    serve::Server &operator*() { return _server; }
    serve::Server *operator->() { return &_server; }

  private:
    serve::Server _server;
    std::thread _thread;
};

serve::ServerOptions
smallServer(const std::string &tag)
{
    serve::ServerOptions options;
    options.socketPath = scratchSocket(tag);
    options.workers = 2;
    options.admissionLimit = 4;
    return options;
}

serve::Client
makeClient(const std::string &socket_path)
{
    serve::ClientOptions options;
    options.socketPath = socket_path;
    options.ioTimeoutMs = 60'000.0; // a hang fails, never wedges
    return serve::Client(options);
}

/** Raw pipelining helper for tests the Client (strict
 *  request/response) cannot express. */
class RawConn
{
  public:
    explicit RawConn(const std::string &socket_path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, socket_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        _fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        EXPECT_GE(_fd, 0);
        EXPECT_EQ(::connect(_fd,
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        timeval tv{60, 0};
        ::setsockopt(_fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }

    ~RawConn()
    {
        if (_fd >= 0)
            ::close(_fd);
    }

    void
    sendBytes(const std::string &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(_fd, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
            ASSERT_GT(n, 0);
            off += static_cast<std::size_t>(n);
        }
    }

    void
    sendFrame(const std::string &payload)
    {
        std::string wire;
        serve::appendFrame(wire, payload);
        sendBytes(wire);
    }

    /** Read one response frame; empty optional on EOF/timeout. */
    std::optional<serve::Response>
    readResponse()
    {
        char chunk[65536];
        while (true) {
            serve::FrameSplit split = serve::splitFrame(
                _rbuf, serve::defaultMaxFrameBytes);
            if (split.status == serve::FrameSplit::Status::Frame) {
                serve::Response response = serve::parseResponse(
                    std::string(split.payload));
                _rbuf.erase(0, split.frameEnd);
                return response;
            }
            ssize_t n = ::read(_fd, chunk, sizeof chunk);
            if (n <= 0)
                return std::nullopt;
            _rbuf.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** True when the daemon closed its end. */
    bool
    atEof()
    {
        char byte;
        ssize_t n = ::read(_fd, &byte, 1);
        if (n > 0)
            _rbuf.push_back(byte);
        return n == 0;
    }

  private:
    int _fd = -1;
    std::string _rbuf;
};

serve::Request
simulateRequest(std::uint64_t id, const std::string &model,
                std::uint32_t steps, double deadline_ms = 0.0)
{
    serve::Request request;
    request.id = id;
    request.kind = serve::RequestKind::Simulate;
    request.deadlineMs = deadline_ms;
    request.sim.model = model;
    request.sim.system = "hetero";
    request.sim.steps = steps;
    return request;
}

// ---------------------------------------------------------------- framing

TEST(ServeFraming, RoundTripsOneFrame)
{
    std::string wire;
    serve::appendFrame(wire, "{\"x\":1}");
    ASSERT_EQ(wire.size(), 4u + 7u);
    serve::FrameSplit split = serve::splitFrame(wire, 1024);
    ASSERT_EQ(split.status, serve::FrameSplit::Status::Frame);
    EXPECT_EQ(split.payload, "{\"x\":1}");
    EXPECT_EQ(split.frameEnd, wire.size());
}

TEST(ServeFraming, PartialHeaderAndPayloadNeedMore)
{
    std::string wire;
    serve::appendFrame(wire, "{\"x\":1}");
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        serve::FrameSplit split =
            serve::splitFrame(std::string_view(wire).substr(0, cut),
                              1024);
        EXPECT_EQ(split.status, serve::FrameSplit::Status::NeedMore)
            << "at cut " << cut;
    }
}

TEST(ServeFraming, OversizeLengthIsInvalidAtFourBytes)
{
    // 16 MiB announced against a 1 KiB cap: rejected from the header
    // alone, long before any payload arrives.
    const std::string header = {'\x01', '\x00', '\x00', '\x00'};
    serve::FrameSplit split = serve::splitFrame(header, 1024);
    ASSERT_EQ(split.status, serve::FrameSplit::Status::Invalid);
    EXPECT_EQ(split.announced, 0x01000000u);
}

TEST(ServeFraming, ZeroLengthIsInvalid)
{
    const std::string header(4, '\0');
    EXPECT_EQ(serve::splitFrame(header, 1024).status,
              serve::FrameSplit::Status::Invalid);
}

TEST(ServeFraming, BackToBackFramesSplitInOrder)
{
    std::string wire;
    serve::appendFrame(wire, "first");
    serve::appendFrame(wire, "second");
    serve::FrameSplit one = serve::splitFrame(wire, 1024);
    ASSERT_EQ(one.status, serve::FrameSplit::Status::Frame);
    EXPECT_EQ(one.payload, "first");
    serve::FrameSplit two = serve::splitFrame(
        std::string_view(wire).substr(one.frameEnd), 1024);
    ASSERT_EQ(two.status, serve::FrameSplit::Status::Frame);
    EXPECT_EQ(two.payload, "second");
}

// ----------------------------------------------------------------- codecs

TEST(ServeProtocol, RequestRoundTripsIncludingFullRangeSeed)
{
    serve::Request request = simulateRequest(7, "resnet50", 12, 250.0);
    request.sim.freqScale = 0.25;
    request.sim.progrPims = 8;
    request.sim.batch = 16;
    request.sim.rc = false;
    request.sim.faultRate = 0.001;
    request.sim.killBanks = 3;
    // Larger than int64: must survive the wire exactly.
    request.sim.faultSeed = 0xFFFFFFFFFFFFFFF5ULL;

    serve::Request parsed =
        serve::parseRequest(serve::encodeRequest(request));
    EXPECT_EQ(parsed.id, 7u);
    EXPECT_EQ(parsed.kind, serve::RequestKind::Simulate);
    EXPECT_EQ(parsed.deadlineMs, 250.0);
    EXPECT_EQ(parsed.sim.model, "resnet50");
    EXPECT_EQ(parsed.sim.steps, 12u);
    EXPECT_EQ(parsed.sim.freqScale, 0.25);
    EXPECT_EQ(parsed.sim.progrPims, 8u);
    EXPECT_EQ(parsed.sim.batch, 16);
    EXPECT_FALSE(parsed.sim.rc);
    EXPECT_TRUE(parsed.sim.op);
    EXPECT_EQ(parsed.sim.faultRate, 0.001);
    EXPECT_EQ(parsed.sim.killBanks, 3u);
    EXPECT_EQ(parsed.sim.faultSeed, 0xFFFFFFFFFFFFFFF5ULL);
}

TEST(ServeProtocol, MalformedRequestsThrowTyped)
{
    EXPECT_THROW(serve::parseRequest("not json"),
                 serve::ProtocolError);
    EXPECT_THROW(serve::parseRequest("[1,2]"), serve::ProtocolError);
    // Missing required fields.
    EXPECT_THROW(serve::parseRequest("{\"v\":1,\"id\":1}"),
                 serve::ProtocolError);
    // Wrong version.
    EXPECT_THROW(
        serve::parseRequest("{\"v\":2,\"id\":1,\"kind\":\"ping\"}"),
        serve::ProtocolError);
    // Unknown top-level field.
    EXPECT_THROW(serve::parseRequest("{\"v\":1,\"id\":1,\"kind\":"
                                     "\"ping\",\"bogus\":1}"),
                 serve::ProtocolError);
    // Unknown sim field (a typo must not silently default).
    EXPECT_THROW(
        serve::parseRequest("{\"v\":1,\"id\":1,\"kind\":\"simulate\","
                            "\"sim\":{\"stepz\":4}}"),
        serve::ProtocolError);
    // Out-of-range sim value.
    EXPECT_THROW(
        serve::parseRequest("{\"v\":1,\"id\":1,\"kind\":\"simulate\","
                            "\"sim\":{\"steps\":0}}"),
        serve::ProtocolError);
    // Unknown model.
    EXPECT_THROW(
        serve::parseRequest("{\"v\":1,\"id\":1,\"kind\":\"simulate\","
                            "\"sim\":{\"model\":\"gpt5\"}}"),
        serve::ProtocolError);
    // Faults on the analytic GPU model.
    EXPECT_THROW(
        serve::parseRequest("{\"v\":1,\"id\":1,\"kind\":\"simulate\","
                            "\"sim\":{\"system\":\"gpu\","
                            "\"fault_rate\":0.1}}"),
        serve::ProtocolError);
    // 'sim' on a non-simulate request.
    EXPECT_THROW(serve::parseRequest("{\"v\":1,\"id\":1,\"kind\":"
                                     "\"ping\",\"sim\":{}}"),
                 serve::ProtocolError);
    // A sim number no conversion reads whole.
    EXPECT_THROW(
        serve::parseRequest("{\"v\":1,\"id\":1,\"kind\":\"simulate\","
                            "\"sim\":{\"steps\":1e}}"),
        serve::ProtocolError);
    // Nesting past the reader's depth limit.
    EXPECT_THROW(serve::parseRequest("{\"v\":1,\"id\":1,\"kind\":"
                                     "\"ping\",\"x\":"
                                     + std::string(100, '[')
                                     + std::string(100, ']') + "}"),
                 serve::ProtocolError);
    // A fault_seed that is not an unsigned integer is named, whatever
    // kind of JSON value it is.
    for (const char *seed : {"-1", "\"x\"", "true", "null"}) {
        SCOPED_TRACE(seed);
        try {
            serve::parseRequest(
                std::string("{\"v\":1,\"id\":5,\"kind\":\"simulate\","
                            "\"sim\":{\"fault_seed\":")
                + seed + "}}");
            ADD_FAILURE() << "accepted";
        } catch (const serve::ProtocolError &e) {
            EXPECT_NE(std::string(e.what()).find("fault_seed"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ServeProtocol, ErrorResponseRoundTrips)
{
    const std::string payload = serve::encodeError(
        9, serve::ErrorCode::Overloaded, "queue full \"now\"");
    serve::Response response = serve::parseResponse(payload);
    EXPECT_EQ(response.id, 9u);
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.code, serve::ErrorCode::Overloaded);
    EXPECT_EQ(response.message, "queue full \"now\"");
}

TEST(ServeProtocol, ErrorCodeNamesRoundTrip)
{
    for (serve::ErrorCode code :
         {serve::ErrorCode::BadRequest, serve::ErrorCode::FrameTooLarge,
          serve::ErrorCode::Overloaded,
          serve::ErrorCode::DeadlineExceeded,
          serve::ErrorCode::ShuttingDown, serve::ErrorCode::Internal}) {
        auto parsed =
            serve::errorCodeFromName(serve::errorCodeName(code));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, code);
    }
    EXPECT_FALSE(serve::errorCodeFromName("nope").has_value());
}

TEST(ServeProtocol, ReportResponseEmbedsReportByteIdentically)
{
    serve::SimulateSpec spec;
    spec.model = "alexnet";
    spec.steps = 1;
    rt::ExecutionReport report = serve::runSimulate(spec);

    serve::Response response = serve::parseResponse(
        serve::encodeReport(3, report, 1.5, 20.25));
    ASSERT_TRUE(response.ok);
    ASSERT_TRUE(response.hasReport);
    EXPECT_EQ(response.queueMs, 1.5);
    EXPECT_EQ(response.runMs, 20.25);
    // The decoded report re-serializes to the exact same bytes.
    EXPECT_EQ(harness::jsonString(response.report),
              harness::jsonString(report));
}

TEST(ServeClient, BackoffIsBoundedExponential)
{
    serve::ClientOptions options;
    options.backoffBaseMs = 50.0;
    options.backoffCapMs = 2'000.0;
    EXPECT_EQ(serve::backoffMs(options, 1), 50.0);
    EXPECT_EQ(serve::backoffMs(options, 2), 100.0);
    EXPECT_EQ(serve::backoffMs(options, 3), 200.0);
    EXPECT_EQ(serve::backoffMs(options, 6), 1'600.0);
    EXPECT_EQ(serve::backoffMs(options, 7), 2'000.0); // capped
    EXPECT_EQ(serve::backoffMs(options, 20), 2'000.0);
}

// ------------------------------------------------------------ the daemon

TEST(ServeServer, PingAndStats)
{
    TestServer server(smallServer("ping"));
    serve::Client client = makeClient(server->socketPath());

    serve::Request ping;
    ping.id = 1;
    ping.kind = serve::RequestKind::Ping;
    serve::Response pong = client.call(ping);
    ASSERT_TRUE(pong.ok);
    EXPECT_EQ(pong.kind, "pong");

    serve::Request stats;
    stats.id = 2;
    stats.kind = serve::RequestKind::Stats;
    serve::Response reply = client.call(stats);
    ASSERT_TRUE(reply.ok);
    ASSERT_FALSE(reply.statsJson.empty());
    harness::json::Value parsed =
        harness::json::parse(reply.statsJson);
    EXPECT_FALSE(parsed.at("draining").asBool());
    EXPECT_EQ(parsed.at("admission_limit").asUInt64(), 4u);
    EXPECT_EQ(parsed.at("requests").asUInt64(), 2u);
}

TEST(ServeServer, ServedReportIsByteIdenticalToLocalRun)
{
    TestServer server(smallServer("identity"));
    serve::Client client = makeClient(server->socketPath());

    serve::Request request = simulateRequest(5, "alexnet", 2);
    serve::Response response = client.call(request);
    ASSERT_TRUE(response.ok);
    ASSERT_TRUE(response.hasReport);
    EXPECT_GE(response.runMs, 0.0);

    rt::ExecutionReport local = serve::runSimulate(request.sim);
    EXPECT_EQ(harness::jsonString(response.report),
              harness::jsonString(local));
}

TEST(ServeServer, BadRequestGetsTypedErrorAndConnectionSurvives)
{
    TestServer server(smallServer("badreq"));
    RawConn conn(server->socketPath());

    conn.sendFrame("{\"v\":1,\"id\":77,\"kind\":\"simulate\","
                   "\"sim\":{\"model\":\"gpt5\"}}");
    auto error = conn.readResponse();
    ASSERT_TRUE(error.has_value());
    EXPECT_FALSE(error->ok);
    EXPECT_EQ(error->code, serve::ErrorCode::BadRequest);
    EXPECT_EQ(error->id, 77u); // best-effort id echo

    // The id is read from the frame's one parse, also when it comes
    // after a graph document that fails validation.
    conn.sendFrame("{\"v\":1,\"kind\":\"simulate\",\"sim\":{\"graph\":"
                   "\"{\\\"schema_version\\\":1}\"},\"id\":79}");
    error = conn.readResponse();
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, serve::ErrorCode::BadRequest);
    EXPECT_EQ(error->id, 79u);
    EXPECT_NE(error->message.find("missing field (field 'name')"),
              std::string::npos)
        << error->message;

    // A frame that is not JSON has no id to echo.
    conn.sendFrame("{\"v\":1,\"id\":80,");
    error = conn.readResponse();
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, serve::ErrorCode::BadRequest);
    EXPECT_EQ(error->id, 0u);

    // The stream is still framed correctly: the next request works.
    serve::Request ping;
    ping.id = 78;
    ping.kind = serve::RequestKind::Ping;
    conn.sendFrame(serve::encodeRequest(ping));
    auto pong = conn.readResponse();
    ASSERT_TRUE(pong.has_value());
    EXPECT_TRUE(pong->ok);
    EXPECT_EQ(pong->id, 78u);
}

TEST(ServeServer, MalformedNumbersAreBadRequestsAndConnectionSurvives)
{
    TestServer server(smallServer("badnumber"));
    RawConn conn(server->socketPath());

    // A graph document whose cost no conversion reads whole, then a
    // sim field like it. Either used to abort the daemon.
    serve::Request bad = simulateRequest(60, "alexnet", 1);
    bad.sim.graph =
        R"({"schema_version":1,"name":"g","ops":[{"type":"MatMul",)"
        R"("label":"m","muls":1e,"adds":1,"specials":0,)"
        R"("bytes_read":8,"bytes_written":8,"units_per_lane":1,)"
        R"("lanes":1,"inputs":[]}]})";
    conn.sendFrame(serve::encodeRequest(bad));
    auto error = conn.readResponse();
    ASSERT_TRUE(error.has_value());
    EXPECT_FALSE(error->ok);
    EXPECT_EQ(error->code, serve::ErrorCode::BadRequest);
    EXPECT_EQ(error->id, 60u);
    EXPECT_NE(error->message.find("malformed number '1e'"),
              std::string::npos)
        << error->message;

    conn.sendFrame("{\"v\":1,\"id\":61,\"kind\":\"simulate\","
                   "\"sim\":{\"steps\":2E+}}");
    error = conn.readResponse();
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, serve::ErrorCode::BadRequest);
    EXPECT_EQ(error->id, 61u);

    // The next request on the same connection is answered.
    conn.sendFrame(
        serve::encodeRequest(simulateRequest(62, "alexnet", 1)));
    auto report = conn.readResponse();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(report->ok);
    EXPECT_EQ(report->id, 62u);
}

TEST(ServeServer, DeeplyNestedFramesAreBadRequestsAndConnectionSurvives)
{
    TestServer server(smallServer("deepnest"));
    RawConn conn(server->socketPath());

    // A 600 KB frame of nested arrays, under the 1 MiB frame cap: it
    // used to overflow the IO thread's stack.
    const std::size_t depth = 300'000;
    conn.sendFrame("{\"v\":1,\"id\":70,\"kind\":\"simulate\",\"sim\":"
                   + std::string(depth, '[') + std::string(depth, ']')
                   + "}");
    auto error = conn.readResponse();
    ASSERT_TRUE(error.has_value());
    EXPECT_FALSE(error->ok);
    EXPECT_EQ(error->code, serve::ErrorCode::BadRequest);
    EXPECT_NE(error->message.find("nesting deeper than 64 levels"),
              std::string::npos)
        << error->message;

    // The same nesting inside a graph document.
    serve::Request bad = simulateRequest(71, "alexnet", 1);
    bad.sim.graph = std::string(depth, '[') + std::string(depth, ']');
    conn.sendFrame(serve::encodeRequest(bad));
    error = conn.readResponse();
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, serve::ErrorCode::BadRequest);
    EXPECT_EQ(error->id, 71u);

    serve::Request ping;
    ping.id = 72;
    ping.kind = serve::RequestKind::Ping;
    conn.sendFrame(serve::encodeRequest(ping));
    auto pong = conn.readResponse();
    ASSERT_TRUE(pong.has_value());
    EXPECT_TRUE(pong->ok);
    EXPECT_EQ(pong->id, 72u);
}

TEST(ServeServer, RunPastTheTickClockIsBadRequestAndDaemonServesOn)
{
    TestServer server(smallServer("tickrange"));
    RawConn conn(server->socketPath());

    // One op whose simulated time passes 2^64 ps: the request asks for
    // more time than the clock holds, so it is the request at fault.
    serve::Request huge = simulateRequest(90, "alexnet", 1);
    huge.sim.graph =
        R"({"schema_version":1,"name":"big","ops":[{"type":"MatMul",)"
        R"("label":"m","muls":5e19,"adds":5e19,"specials":0,)"
        R"("bytes_read":1e6,"bytes_written":0,"units_per_lane":4,)"
        R"("lanes":1e6,"inputs":[]}]})";
    conn.sendFrame(serve::encodeRequest(huge));
    auto error = conn.readResponse();
    ASSERT_TRUE(error.has_value());
    EXPECT_FALSE(error->ok);
    EXPECT_EQ(error->code, serve::ErrorCode::BadRequest);
    EXPECT_EQ(error->id, 90u);

    // The daemon and this connection both live on.
    conn.sendFrame(
        serve::encodeRequest(simulateRequest(91, "alexnet", 2)));
    auto report = conn.readResponse();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(report->ok);
    EXPECT_EQ(report->id, 91u);
    EXPECT_TRUE(report->hasReport);
}

TEST(ServeServer, OversizeFrameIsRejectedAndConnectionClosed)
{
    serve::ServerOptions options = smallServer("oversize");
    options.maxFrameBytes = 256;
    TestServer server(std::move(options));
    RawConn conn(server->socketPath());

    // Announce 1 MiB against the 256-byte cap; send only the header.
    conn.sendBytes({'\x00', '\x10', '\x00', '\x00'});
    auto error = conn.readResponse();
    ASSERT_TRUE(error.has_value());
    EXPECT_FALSE(error->ok);
    EXPECT_EQ(error->code, serve::ErrorCode::FrameTooLarge);
    // After the typed error the daemon hangs up (the stream cannot
    // be resynchronized).
    EXPECT_TRUE(conn.atEof());
}

TEST(ServeServer, OverloadRejectsTypedAndAnswersEverything)
{
    serve::ServerOptions options = smallServer("overload");
    options.workers = 1;
    options.admissionLimit = 1;
    TestServer server(std::move(options));
    RawConn conn(server->socketPath());

    // Pipeline 6 requests at a 1-deep admission queue with 1 worker:
    // some complete, the spill gets typed `overloaded` -- and every
    // single one is answered. The requests must be slow enough that
    // the worker cannot drain the queue between two enqueues of the
    // same pipelined burst (a fast model here makes the spill count
    // a race), hence the big-model, many-step configuration.
    constexpr int kBurst = 6;
    for (int i = 0; i < kBurst; ++i)
        conn.sendFrame(serve::encodeRequest(
            simulateRequest(100 + i, "vgg19", 64)));

    int ok = 0, overloaded = 0;
    for (int i = 0; i < kBurst; ++i) {
        auto response = conn.readResponse();
        ASSERT_TRUE(response.has_value()) << "request " << i
                                          << " was never answered";
        if (response->ok)
            ++ok;
        else if (response->code == serve::ErrorCode::Overloaded)
            ++overloaded;
        else
            FAIL() << "unexpected error "
                   << serve::errorCodeName(response->code);
    }
    EXPECT_GE(ok, 1);
    EXPECT_GE(overloaded, 1);
    EXPECT_EQ(ok + overloaded, kBurst);
}

TEST(ServeServer, DeadlineExpiresWhileQueued)
{
    serve::ServerOptions options = smallServer("dlqueue");
    options.workers = 1;
    options.admissionLimit = 4;
    TestServer server(std::move(options));
    RawConn conn(server->socketPath());

    // A slow request occupies the only worker; the microscopic
    // deadline behind it expires before a worker ever picks it up.
    conn.sendFrame(serve::encodeRequest(
        simulateRequest(1, "alexnet", 16)));
    conn.sendFrame(serve::encodeRequest(
        simulateRequest(2, "vgg19", 91, 0.001)));

    auto first = conn.readResponse();
    auto second = conn.readResponse();
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(first->ok);
    ASSERT_FALSE(second->ok);
    EXPECT_EQ(second->code, serve::ErrorCode::DeadlineExceeded);
    EXPECT_NE(second->message.find("queue"), std::string::npos);
}

TEST(ServeServer, DeadlineExpiresMidSimulation)
{
    TestServer server(smallServer("dlrun"));
    serve::Client client = makeClient(server->socketPath());

    // Runs at once on an idle worker but cannot finish 400001 VGG-19
    // steps in 250 ms: expires at a phase boundary. The budget
    // outlasts a loaded host's delay before a worker picks the
    // request up, which would otherwise expire it in the queue.
    serve::Response response =
        client.call(simulateRequest(1, "vgg19", 400'001, 250.0));
    ASSERT_FALSE(response.ok);
    EXPECT_EQ(response.code, serve::ErrorCode::DeadlineExceeded);
    EXPECT_NE(response.message.find("phase"), std::string::npos);
}

TEST(ServeServer, DrainFinishesInFlightWorkAndStopsAccepting)
{
    TestServer server(smallServer("drain"));
    RawConn conn(server->socketPath());

    // In-flight request, then stop before reading the response.
    conn.sendFrame(serve::encodeRequest(
        simulateRequest(1, "alexnet", 8)));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server->requestStop();

    // The admitted request still completes and its response is
    // flushed before run() returns.
    auto response = conn.readResponse();
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->ok);

    server.stop(); // joins run()
    EXPECT_GE(server->drainMs(), 0.0);

    // The socket is gone: new connections fail.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, server->socketPath().c_str(),
                 sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    EXPECT_NE(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ::close(fd);
}

TEST(ServeServer, DrainingDaemonRejectsNewWorkTyped)
{
    // The parked request must finish on its own: under a sanitizer it
    // outlasts the default 30 s grace, whose hard stop would answer it
    // shutting_down.
    serve::ServerOptions options = smallServer("drainreject");
    options.drainGraceMs = 600'000.0;
    TestServer server(std::move(options));
    RawConn conn(server->socketPath());

    // Park a genuinely slow request so the drain stays open while we
    // poke at it, then stop. 4001 steps still run when request 2 lands
    // about 40 ms later (0.1-0.16 s in Release, about 14 s under TSan).
    conn.sendFrame(serve::encodeRequest(
        simulateRequest(1, "vgg19", 4'001)));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server->requestStop();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    // The established connection is still served during the drain --
    // but simulate requests on it are rejected typed.
    conn.sendFrame(serve::encodeRequest(
        simulateRequest(2, "alexnet", 1)));

    // The rejection is generated inline while request 1 is still
    // simulating, so responses arrive in completion order: match by
    // id, not arrival order.
    std::map<std::uint64_t, serve::Response> by_id;
    for (int i = 0; i < 2; ++i) {
        auto response = conn.readResponse();
        ASSERT_TRUE(response.has_value());
        by_id[response->id] = *response;
    }
    ASSERT_EQ(by_id.count(1u), 1u);
    ASSERT_EQ(by_id.count(2u), 1u);
    EXPECT_TRUE(by_id[1].ok);
    ASSERT_FALSE(by_id[2].ok);
    EXPECT_EQ(by_id[2].code, serve::ErrorCode::ShuttingDown);
}

TEST(ServeServer, SimulationOutlastingIoTimeoutStillAnswers)
{
    // The connection is idle -- nothing to read, nothing to write --
    // for the whole simulation, several times the IO timeout (0.1-0.16
    // s in Release, at least 3x; about 14 s under TSan, inside
    // RawConn's 60 s read timeout). That is not a stalled write: the
    // response must be delivered, and no IO timeout counted.
    serve::ServerOptions options = smallServer("slowsim");
    options.ioTimeoutMs = 30.0;
    TestServer server(std::move(options));
    RawConn conn(server->socketPath());

    conn.sendFrame(serve::encodeRequest(
        simulateRequest(1, "vgg19", 4'000)));
    auto response = conn.readResponse();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->id, 1u);
    EXPECT_TRUE(response->ok);

    serve::Request stats;
    stats.id = 2;
    stats.kind = serve::RequestKind::Stats;
    conn.sendFrame(serve::encodeRequest(stats));
    auto reply = conn.readResponse();
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(reply->ok);
    harness::json::Value parsed = harness::json::parse(reply->statsJson);
    EXPECT_EQ(parsed.at("io_timeouts").asUInt64(), 0u);
}

TEST(ServeServer, DrainGraceHardStopsEndlessWork)
{
    serve::ServerOptions options = smallServer("graceston");
    options.workers = 1;
    options.drainGraceMs = 50.0;
    TestServer server(std::move(options));
    RawConn conn(server->socketPath());

    // A deadline-less request that would run for a very long time
    // (about 0.6 s in Release, far past the 80 ms until the grace
    // expires); the hard stop cuts it short under any sanitizer.
    conn.sendFrame(serve::encodeRequest(
        simulateRequest(1, "vgg19", 20'001)));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server->requestStop();

    // The grace expires, the global stop unwinds the simulation, the
    // response is a typed shutting_down -- and run() returns instead
    // of waiting minutes.
    auto response = conn.readResponse();
    ASSERT_TRUE(response.has_value());
    ASSERT_FALSE(response->ok);
    EXPECT_EQ(response->code, serve::ErrorCode::ShuttingDown);
    server.stop();
}

TEST(ServeServer, SharedMemoCacheServesRepeatsFromMemo)
{
    TestServer server(smallServer("memo"));
    serve::Client client = makeClient(server->socketPath());

    serve::Request request = simulateRequest(1, "dcgan", 3);
    serve::Response first = client.call(request);
    request.id = 2;
    serve::Response second = client.call(request);
    ASSERT_TRUE(first.ok);
    ASSERT_TRUE(second.ok);
    EXPECT_EQ(harness::jsonString(first.report),
              harness::jsonString(second.report));

    serve::Request stats;
    stats.id = 3;
    stats.kind = serve::RequestKind::Stats;
    serve::Response reply = client.call(stats);
    ASSERT_TRUE(reply.ok);
    harness::json::Value parsed =
        harness::json::parse(reply.statsJson);
    // At least the repeat must have hit the process-wide memo cache.
    EXPECT_GE(parsed.at("memo").at("hits").asUInt64(), 1u);
    // partial_hits stays in the protocol v1 stats and reads 0: no
    // memo tier hits partially.
    EXPECT_EQ(parsed.at("memo").at("partial_hits").asUInt64(), 0u);
    EXPECT_GE(parsed.at("memo").at("evictions").asUInt64(), 0u);
    // No cap was configured for this daemon.
    EXPECT_EQ(parsed.at("memo").at("max_entries").asUInt64(), 0u);
}

TEST(ServeServer, ConcurrentClientsAreAllAnsweredByteIdentically)
{
    // A closed loop: each client thread waits for its answer before
    // sending the next request, alternating two configs so the first
    // visits miss the shared memo cache and the rest hit it.
    serve::ServerOptions options = smallServer("concurrent");
    constexpr int kClients = 4;
    constexpr int kRequests = 25;
    options.admissionLimit = kClients; // never overloaded
    TestServer server(std::move(options));

    std::string expected[2];
    for (std::uint32_t steps : {1u, 2u}) {
        expected[steps - 1] = harness::jsonString(serve::runSimulate(
            simulateRequest(0, "alexnet", steps).sim));
    }

    std::vector<std::vector<serve::Response>> responses(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            serve::Client client = makeClient(server->socketPath());
            for (int r = 0; r < kRequests; ++r) {
                responses[c].push_back(client.call(simulateRequest(
                    c * kRequests + r + 1, "alexnet", 1 + r % 2)));
            }
        });
    }
    for (std::thread &thread : clients)
        thread.join();

    for (int c = 0; c < kClients; ++c) {
        ASSERT_EQ(responses[c].size(), std::size_t(kRequests));
        for (int r = 0; r < kRequests; ++r) {
            const serve::Response &response = responses[c][r];
            ASSERT_TRUE(response.ok)
                << "client " << c << " request " << r << ": "
                << serve::errorCodeName(response.code);
            EXPECT_EQ(response.id, std::uint64_t(c * kRequests + r + 1));
            ASSERT_TRUE(response.hasReport);
            EXPECT_EQ(harness::jsonString(response.report),
                      expected[r % 2])
                << "client " << c << " request " << r;
        }
    }

    serve::Client client = makeClient(server->socketPath());
    serve::Request stats;
    stats.kind = serve::RequestKind::Stats;
    serve::Response reply = client.call(stats);
    ASSERT_TRUE(reply.ok);
    EXPECT_GE(harness::json::parse(reply.statsJson)
                  .at("memo")
                  .at("hits")
                  .asUInt64(),
              1u);
}

TEST(ServeClient, ReconnectsToARestartedDaemonTransparently)
{
    const std::string socket_path = scratchSocket("reconnect");
    serve::ClientOptions client_options;
    client_options.socketPath = socket_path;
    client_options.ioTimeoutMs = 60'000.0;
    client_options.backoffBaseMs = 5.0;
    serve::Client client(client_options);

    serve::Request ping;
    ping.id = 1;
    ping.kind = serve::RequestKind::Ping;

    {
        serve::ServerOptions options;
        options.socketPath = socket_path;
        options.workers = 1;
        TestServer server(std::move(options));
        EXPECT_TRUE(client.call(ping).ok);
    } // daemon gone; the client still holds the dead connection

    serve::ServerOptions options;
    options.socketPath = socket_path;
    options.workers = 1;
    TestServer server(std::move(options));
    // One transparent reconnect+resend; no error surfaces.
    ping.id = 2;
    serve::Response pong = client.call(ping);
    EXPECT_TRUE(pong.ok);
    EXPECT_EQ(pong.id, 2u);
}

TEST(ServeClient, UnreachableDaemonFailsAfterBoundedRetries)
{
    serve::ClientOptions options;
    options.socketPath = "/tmp/hpim_test_serve.nowhere.sock";
    options.connectAttempts = 2;
    options.backoffBaseMs = 1.0;
    serve::Client client(options);
    serve::Request ping;
    ping.id = 1;
    ping.kind = serve::RequestKind::Ping;
    EXPECT_THROW(client.call(ping), serve::ProtocolError);
}

TEST(ServeServer, ReplacesStaleSocketButRefusesLiveDaemon)
{
    const std::string socket_path = scratchSocket("stale");
    // Plant a stale socket file nobody listens on.
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, socket_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ::close(fd); // bound but never listened: stale on disk
    }

    // A new daemon must replace it and come up serving.
    serve::ServerOptions options;
    options.socketPath = socket_path;
    options.workers = 1;
    TestServer server(std::move(options));
    serve::Client client = makeClient(socket_path);
    serve::Request ping;
    ping.id = 1;
    ping.kind = serve::RequestKind::Ping;
    EXPECT_TRUE(client.call(ping).ok);
}

// ------------------------------------------------- host-IO fail points

/** Arms a fail-point spec for one scope; always disarms on exit so a
 *  failing EXPECT cannot leak a chaos program into later tests. */
struct ArmedFailPoints
{
    explicit ArmedFailPoints(const std::string &spec)
    {
        harness::configureFailPoints(spec);
    }

    ~ArmedFailPoints() { harness::clearFailPoints(); }
};

TEST(ServeFailPoints, ServeSitesAreRegistered)
{
    // server.cc is linked into this binary, so its static sites are
    // live: the daemon-side IO boundaries the chaos harness arms.
    std::vector<std::string> sites = harness::failPointSites();
    for (const char *expected :
         {"serve.send", "serve.recv", "serve.trace.export"}) {
        EXPECT_NE(std::find(sites.begin(), sites.end(), expected),
                  sites.end())
            << "site '" << expected << "' is not registered";
    }
}

TEST(ServeFailPoints, EintrStormOnSocketIoIsInvisible)
{
    // Injected EINTR on every few send()/recv() calls must be
    // absorbed by the daemon's bounded retry loop: every request is
    // answered normally, no connection is torn.
    TestServer server(smallServer("fp-eintr"));
    serve::Client client = makeClient(server->socketPath());
    ArmedFailPoints armed(
        "serve.send=every(3):eintr;serve.recv=every(4):eintr");
    for (int i = 0; i < 12; ++i) {
        serve::Request ping;
        ping.id = 100 + i;
        ping.kind = serve::RequestKind::Ping;
        EXPECT_TRUE(client.call(ping).ok) << "request " << i;
    }
}

TEST(ServeFailPoints, ShortSendsReassembleByteIdentical)
{
    // Short socket writes fragment response frames; the daemon's
    // write loop and the client's frame splitter must reassemble
    // them with no byte lost. A simulate response is the probe: its
    // embedded report must match an uninjected local run exactly.
    TestServer server(smallServer("fp-short"));
    serve::Client client = makeClient(server->socketPath());

    serve::Request request;
    request.id = 1;
    request.kind = serve::RequestKind::Simulate;
    request.sim.model = "alexnet";
    request.sim.system = "hetero";
    request.sim.steps = 1;
    serve::Response clean = client.call(request);
    ASSERT_TRUE(clean.ok);

    ArmedFailPoints armed("serve.send=every(2):short(7)");
    request.id = 2;
    serve::Response fragmented = client.call(request);
    ASSERT_TRUE(fragmented.ok);
    EXPECT_EQ(harness::jsonString(fragmented.report),
              harness::jsonString(clean.report));
}

TEST(ServeFailPoints, HardSendFaultTearsConnectionNotDaemon)
{
    // A hard EIO on a response send tears that one connection. The
    // client reconnects and resends (idempotent request), the daemon
    // keeps serving, and a clean probe afterwards succeeds.
    TestServer server(smallServer("fp-eio"));
    serve::Client client = makeClient(server->socketPath());
    {
        ArmedFailPoints armed("serve.send=after(1):eio");
        for (int i = 0; i < 6; ++i) {
            serve::Request ping;
            ping.id = 200 + i;
            ping.kind = serve::RequestKind::Ping;
            EXPECT_TRUE(client.call(ping).ok) << "request " << i;
        }
    }
    serve::Request ping;
    ping.id = 300;
    ping.kind = serve::RequestKind::Ping;
    EXPECT_TRUE(client.call(ping).ok) << "daemon died in the storm";
}

TEST(ServeFailPoints, HardRecvFaultTearsConnectionNotDaemon)
{
    TestServer server(smallServer("fp-recv"));
    {
        ArmedFailPoints armed("serve.recv=after(1):eio");
        serve::Client client = makeClient(server->socketPath());
        for (int i = 0; i < 6; ++i) {
            serve::Request ping;
            ping.id = 400 + i;
            ping.kind = serve::RequestKind::Ping;
            EXPECT_TRUE(client.call(ping).ok) << "request " << i;
        }
    }
    serve::Client probe = makeClient(server->socketPath());
    serve::Request ping;
    ping.id = 500;
    ping.kind = serve::RequestKind::Ping;
    EXPECT_TRUE(probe.call(ping).ok) << "daemon died in the storm";
}

} // namespace
