/**
 * @file
 * Wire protocol of the hpim_serve daemon (docs/SERVING.md).
 *
 * Transport is a Unix-domain stream socket carrying *frames*: a
 * 4-byte big-endian payload length followed by that many bytes of
 * UTF-8 JSON. The length may not be zero and may not exceed the
 * configured maximum (defaultMaxFrameBytes unless overridden), so a
 * client announcing a huge frame is rejected before any buffering
 * happens -- the daemon never allocates what a malicious length
 * field asks for.
 *
 * Requests name a kind (ping / stats / simulate), an id the response
 * echoes, an optional deadline_ms admission budget, and -- for
 * simulate -- a `sim` object. This file owns the simulate contract:
 * one table of the sim fields (name, JSON kind, range, whole or not)
 * that parseRequest() reads the object through and hpim_cli reads
 * its flags through, and one check of the rules that join fields
 * (checkSimSpec). A typo'd, repeated, ill-typed, fractional or
 * out-of-range field is a typed `bad_request`, never a silent
 * default. A `graph` document is not read here: the worker that runs
 * the request parses it (serve/simulate.cc).
 *
 * Responses are either `"status":"ok"` with a kind-specific body --
 * a simulate response embeds the report exactly as
 * harness::writeJson emits it, which is what makes served responses
 * byte-identical to one-shot runs -- or `"status":"error"` with a
 * typed code from ErrorCode. Every request gets exactly one
 * response; a request can complete, be rejected with a typed error,
 * or deadline-expire, but never hang.
 */

#ifndef HPIM_SERVE_PROTOCOL_HH
#define HPIM_SERVE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/presets.hh"
#include "nn/models.hh"
#include "rt/execution_report.hh"
#include "sim/rng.hh"

namespace hpim::serve {

/** Version of the frame layout and request/response JSON. */
constexpr int protocolVersion = 1;

/** Default cap on one frame's payload bytes (1 MiB). */
constexpr std::size_t defaultMaxFrameBytes = 1u << 20;

/** A frame or request/response document that cannot be parsed. */
struct ProtocolError : std::runtime_error
{
    explicit ProtocolError(const std::string &message)
        : std::runtime_error("protocol: " + message)
    {
    }

    /**
     * parseRequest(): the id to echo in the `bad_request` answer --
     * the first `id` member of an object root read as a uint64, else
     * 0. Reading it from the one parse spares a second.
     */
    std::uint64_t id = 0;
};

/** Typed rejection codes; stable wire names via errorCodeName(). */
enum class ErrorCode : std::uint8_t
{
    BadRequest,       ///< unparsable or invalid request
    FrameTooLarge,    ///< announced frame length over the cap
    Overloaded,       ///< admission queue full; retry later
    DeadlineExceeded, ///< budget spent queued or mid-simulation
    ShuttingDown,     ///< daemon is draining; retry elsewhere/later
    Internal,         ///< simulation threw something unexpected
};

/** @return stable wire name, e.g. "overloaded". */
const char *errorCodeName(ErrorCode code);

/** @return parsed code, or nullopt for an unknown name. */
std::optional<ErrorCode> errorCodeFromName(std::string_view name);

// ---------------------------------------------------------------- framing

/** Append one frame (4-byte big-endian length + payload) to @p out. */
void appendFrame(std::string &out, std::string_view payload);

/** Result of trying to split one frame off a receive buffer. */
struct FrameSplit
{
    enum class Status
    {
        NeedMore, ///< buffer holds a partial header or payload
        Frame,    ///< `payload` views the frame; consume `frameEnd`
        Invalid,  ///< zero-length frame or length over the cap
    };

    Status status = Status::NeedMore;
    std::size_t frameEnd = 0;      ///< bytes to consume on Frame
    std::string_view payload;      ///< valid only while buffer lives
    std::uint32_t announced = 0;   ///< header length field (diagnostics)
};

/**
 * Split the first complete frame off @p buffer. Never consumes; the
 * caller erases `frameEnd` bytes after handling the payload. A
 * malformed length (zero, or > @p max_frame_bytes) reports Invalid
 * *before* the payload arrives, so oversize frames are rejected at
 * 4 bytes of input.
 */
FrameSplit splitFrame(std::string_view buffer,
                      std::size_t max_frame_bytes);

// --------------------------------------------------------------- requests

/** What a request asks the daemon to do. */
enum class RequestKind : std::uint8_t
{
    Ping,     ///< liveness probe; answered inline by the IO loop
    Stats,    ///< serve.* metrics + memo-cache stats snapshot
    Simulate, ///< run one simulation; the daemon's real work
};

/** @return wire name ("ping"/"stats"/"simulate"). */
const char *requestKindName(RequestKind kind);

/**
 * One simulation request: the same knobs as the hpim_cli flags,
 * with the same defaults (hpim_cli starts from a default spec).
 */
struct SimulateSpec
{
    std::string model = "alexnet";
    /**
     * A complete nn::GraphIo JSON document (the *content* of a graph
     * file, carried as a string field). Empty = run the built-in
     * `model`. Mutually exclusive with an explicit `model`, with a
     * non-zero `batch` (a serialized graph bakes its batch into its
     * op costs), and with the analytic `gpu` system.
     */
    std::string graph;
    std::string system = "hetero";
    std::uint32_t steps = 4;
    double freqScale = 1.0;
    std::uint32_t progrPims = 1;
    int batch = 0; ///< 0 = the model's paper default
    bool rc = true;
    bool op = true;
    double faultRate = 0.0;
    std::uint32_t killBanks = 0;
    std::uint64_t faultSeed = hpim::sim::defaultSeed;
};

/**
 * The members of a request's `sim` object besides `fault_seed`, in
 * the order the encoder writes them. One table in protocol.cc gives
 * each its wire name, JSON kind and range.
 */
enum class SimField : std::uint8_t
{
    Model,
    Graph,
    System,
    Steps,
    FreqScale,
    ProgrPims,
    Batch,
    Rc,
    Op,
    FaultRate,
    KillBanks,
};

/**
 * Append "key 'NAME' = VALUE out of range [MIN, MAX]" to
 * @p violations unless MIN <= @p value <= MAX. NaN is never in range.
 * @return whether @p value is in range
 */
bool checkRange(std::string_view name, double value, double min,
                double max, std::vector<std::string> &violations);

/**
 * Store @p value in the numeric field @p field of @p spec when it is
 * in the field's inclusive range and, for a count (`steps`,
 * `progr_pims`, `batch`, `kill_banks`), whole. Otherwise append the
 * violation, naming the field and the value, and leave @p spec as it
 * was.
 */
void setSimNumber(SimulateSpec &spec, SimField field, double value,
                  std::vector<std::string> &violations);

/**
 * Append the rules @p spec breaks that no single field decides: an
 * unknown model (unless a graph document stands in for it) or
 * system, a `batch` with a graph, a graph or faults on the analytic
 * `gpu` system. parseRequest() and hpim_cli call it once every field
 * is read. Whether `model` was given beside a graph depends on the
 * reader, so each reader checks that itself.
 */
void checkSimSpec(const SimulateSpec &spec,
                  std::vector<std::string> &violations);

/** One decoded request frame. */
struct Request
{
    std::uint64_t id = 0; ///< client-chosen; echoed in the response
    RequestKind kind = RequestKind::Ping;
    double deadlineMs = 0.0; ///< total budget; 0 = no deadline
    SimulateSpec sim;        ///< Simulate requests only
};

/** Encode @p request as a request-frame payload. */
std::string encodeRequest(const Request &request);

/**
 * Parse and validate a request payload. Throws ProtocolError naming
 * the offending member on malformed JSON, a repeated member, an
 * unknown kind, or any sim field or checkSimSpec() rule it breaks,
 * every such violation listed -- the daemon maps the message into a
 * `bad_request` response, so a bad request can never crash or wedge
 * the server. The error carries the request's best-effort id. A
 * `graph` document is carried as text, unread.
 */
Request parseRequest(const std::string &payload);

// -------------------------------------------------------------- responses

/** One decoded response frame (client side). */
struct Response
{
    std::uint64_t id = 0;
    bool ok = false;
    std::string kind; ///< "pong"/"stats"/"report" when ok
    ErrorCode code = ErrorCode::Internal; ///< when !ok
    std::string message;                  ///< when !ok
    double queueMs = 0.0; ///< report responses: admission-queue wait
    double runMs = 0.0;   ///< report responses: simulation wall time
    bool hasReport = false;
    hpim::rt::ExecutionReport report; ///< when hasReport
    std::string statsJson; ///< stats responses: raw "stats" object
};

/** Encode an ok-pong response payload. */
std::string encodePong(std::uint64_t id);

/** Encode an ok-stats response; @p stats_object is raw JSON. */
std::string encodeStats(std::uint64_t id,
                        const std::string &stats_object);

/**
 * Encode an ok-report response. The embedded report bytes are
 * exactly harness::jsonString(report) -- the byte-identity anchor.
 */
std::string encodeReport(std::uint64_t id,
                         const hpim::rt::ExecutionReport &report,
                         double queue_ms, double run_ms);

/** Encode a typed error response. */
std::string encodeError(std::uint64_t id, ErrorCode code,
                        const std::string &message);

/** Parse a response payload; throws ProtocolError when malformed. */
Response parseResponse(const std::string &payload);

// ------------------------------------------------------- name conversion

/** @return the ModelId for a CLI/wire token ("vgg19", "alexnet",
 *  ...), or nullopt for an unknown token. */
std::optional<hpim::nn::ModelId> modelFromToken(const std::string &token);

/** @return the wire token of @p model. */
const char *modelToken(hpim::nn::ModelId model);

/** @return the SystemKind for a token ("cpu", "hetero", ...). */
std::optional<hpim::baseline::SystemKind>
systemFromToken(const std::string &token);

/** Space-separated token lists for usage/error messages. */
const char *modelTokenList();
const char *systemTokenList();

} // namespace hpim::serve

#endif // HPIM_SERVE_PROTOCOL_HH
