#include "serve/protocol.hh"

#include <charconv>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "harness/json.hh"
#include "harness/json_writer.hh"
#include "harness/report_io.hh"
#include "sim/logging.hh"

namespace hpim::serve {

namespace json = hpim::harness::json;

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::BadRequest: return "bad_request";
      case ErrorCode::FrameTooLarge: return "frame_too_large";
      case ErrorCode::Overloaded: return "overloaded";
      case ErrorCode::DeadlineExceeded: return "deadline_exceeded";
      case ErrorCode::ShuttingDown: return "shutting_down";
      case ErrorCode::Internal: return "internal";
    }
    return "internal";
}

std::optional<ErrorCode>
errorCodeFromName(std::string_view name)
{
    for (ErrorCode code :
         {ErrorCode::BadRequest, ErrorCode::FrameTooLarge,
          ErrorCode::Overloaded, ErrorCode::DeadlineExceeded,
          ErrorCode::ShuttingDown, ErrorCode::Internal}) {
        if (name == errorCodeName(code))
            return code;
    }
    return std::nullopt;
}

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
      case RequestKind::Ping: return "ping";
      case RequestKind::Stats: return "stats";
      case RequestKind::Simulate: return "simulate";
    }
    return "ping";
}

// ---------------------------------------------------------------- framing

void
appendFrame(std::string &out, std::string_view payload)
{
    if (payload.empty())
        throw ProtocolError("refusing to send an empty frame");
    if (payload.size() > std::numeric_limits<std::uint32_t>::max())
        throw ProtocolError("frame payload too large to encode");
    const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
    char header[4] = {static_cast<char>((n >> 24) & 0xFF),
                      static_cast<char>((n >> 16) & 0xFF),
                      static_cast<char>((n >> 8) & 0xFF),
                      static_cast<char>(n & 0xFF)};
    out.append(header, 4);
    out.append(payload);
}

FrameSplit
splitFrame(std::string_view buffer, std::size_t max_frame_bytes)
{
    FrameSplit split;
    if (buffer.size() < 4)
        return split; // NeedMore
    const auto *b = reinterpret_cast<const unsigned char *>(
        buffer.data());
    split.announced = (std::uint32_t(b[0]) << 24)
                      | (std::uint32_t(b[1]) << 16)
                      | (std::uint32_t(b[2]) << 8)
                      | std::uint32_t(b[3]);
    if (split.announced == 0 || split.announced > max_frame_bytes) {
        split.status = FrameSplit::Status::Invalid;
        return split;
    }
    if (buffer.size() < 4u + split.announced)
        return split; // NeedMore
    split.status = FrameSplit::Status::Frame;
    split.frameEnd = 4u + split.announced;
    split.payload = buffer.substr(4, split.announced);
    return split;
}

// ------------------------------------------------------- name conversion

namespace {

struct ModelToken
{
    const char *token;
    hpim::nn::ModelId id;
};

constexpr ModelToken kModels[] = {
    {"vgg19", hpim::nn::ModelId::Vgg19},
    {"alexnet", hpim::nn::ModelId::AlexNet},
    {"dcgan", hpim::nn::ModelId::Dcgan},
    {"resnet50", hpim::nn::ModelId::ResNet50},
    {"inception3", hpim::nn::ModelId::InceptionV3},
    {"lstm", hpim::nn::ModelId::Lstm},
    {"word2vec", hpim::nn::ModelId::Word2vec},
};

struct SystemToken
{
    const char *token;
    hpim::baseline::SystemKind kind;
};

constexpr SystemToken kSystems[] = {
    {"cpu", hpim::baseline::SystemKind::CpuOnly},
    {"gpu", hpim::baseline::SystemKind::Gpu},
    {"progr", hpim::baseline::SystemKind::ProgrPimOnly},
    {"fixed", hpim::baseline::SystemKind::FixedPimOnly},
    {"hetero", hpim::baseline::SystemKind::HeteroPim},
    {"neurocube", hpim::baseline::SystemKind::Neurocube},
};

} // namespace

std::optional<hpim::nn::ModelId>
modelFromToken(const std::string &token)
{
    for (const ModelToken &m : kModels)
        if (token == m.token)
            return m.id;
    return std::nullopt;
}

const char *
modelToken(hpim::nn::ModelId model)
{
    for (const ModelToken &m : kModels)
        if (m.id == model)
            return m.token;
    return "alexnet";
}

std::optional<hpim::baseline::SystemKind>
systemFromToken(const std::string &token)
{
    for (const SystemToken &s : kSystems)
        if (token == s.token)
            return s.kind;
    return std::nullopt;
}

const char *
modelTokenList()
{
    return "vgg19 alexnet dcgan resnet50 inception3 lstm word2vec";
}

const char *
systemTokenList()
{
    return "cpu gpu progr fixed hetero neurocube";
}

// --------------------------------------------------------------- requests

namespace {

/** How one `sim` field reads. */
struct FieldRule
{
    std::string_view name;
    json::Value::Kind kind;
    double min = 0.0; ///< inclusive range of a number
    double max = 0.0;
    bool whole = false; ///< a number that counts something
};

/**
 * The sim fields, indexed by SimField: the one place their names and
 * ranges are written. parseRequest() reads the `sim` object through
 * it, hpim_cli its flags (through setSimNumber()) and the encoder its
 * keys.
 */
constexpr FieldRule kSimFields[] = {
    {"model", json::Value::Kind::String},
    {"graph", json::Value::Kind::String},
    {"system", json::Value::Kind::String},
    {"steps", json::Value::Kind::Number, 1.0, 1e6, true},
    {"freq_scale", json::Value::Kind::Number, 1.0 / 64, 128.0},
    {"progr_pims", json::Value::Kind::Number, 1.0, 256.0, true},
    {"batch", json::Value::Kind::Number, 0.0, 65536.0, true},
    {"rc", json::Value::Kind::Bool},
    {"op", json::Value::Kind::Bool},
    {"fault_rate", json::Value::Kind::Number, 0.0, 1.0},
    {"kill_banks", json::Value::Kind::Number, 0.0, 4096.0, true},
};
constexpr std::size_t kNumSimFields = std::size(kSimFields);
static_assert(kNumSimFields
              == static_cast<std::size_t>(SimField::KillBanks) + 1);

const FieldRule &
rule(SimField field)
{
    return kSimFields[static_cast<std::size_t>(field)];
}

/** @return the index of the sim field named @p name, or kNumSimFields. */
std::size_t
fieldIndex(std::string_view name)
{
    std::size_t i = 0;
    while (i < kNumSimFields && kSimFields[i].name != name)
        ++i;
    return i;
}

/** The type a wrong-type message names: int, double, bool or string. */
const char *
typeName(json::Value::Kind kind, bool whole)
{
    switch (kind) {
      case json::Value::Kind::Bool: return "bool";
      case json::Value::Kind::String: return "string";
      default: return whole ? "int" : "double";
    }
}

} // namespace

bool
checkRange(std::string_view name, double value, double min, double max,
           std::vector<std::string> &violations)
{
    if (value >= min && value <= max)
        return true;
    std::ostringstream os;
    os << "key '" << name << "' = " << value << " out of range [" << min
       << ", " << max << "]";
    violations.push_back(os.str());
    return false;
}

void
setSimNumber(SimulateSpec &spec, SimField field, double value,
             std::vector<std::string> &violations)
{
    const FieldRule &f = rule(field);
    panic_if(f.kind != json::Value::Kind::Number, "sim field '",
             f.name, "' is not a number");
    if (f.whole && value != std::trunc(value)) {
        // The shortest spelling that reads back as the value: 2.5, or
        // 1000000.5 where a stream would print 1e+06.
        char text[32];
        char *end = std::to_chars(text, text + sizeof text, value).ptr;
        violations.push_back("key '" + std::string(f.name) + "' = "
                             + std::string(text, end)
                             + " is not a whole number");
        return;
    }
    if (!checkRange(f.name, value, f.min, f.max, violations))
        return;
    switch (field) {
      case SimField::Steps:
        spec.steps = static_cast<std::uint32_t>(value);
        break;
      case SimField::FreqScale: spec.freqScale = value; break;
      case SimField::ProgrPims:
        spec.progrPims = static_cast<std::uint32_t>(value);
        break;
      case SimField::Batch: spec.batch = static_cast<int>(value); break;
      case SimField::FaultRate: spec.faultRate = value; break;
      case SimField::KillBanks:
        spec.killBanks = static_cast<std::uint32_t>(value);
        break;
      default: break; // not a number: refused above
    }
}

void
checkSimSpec(const SimulateSpec &spec,
             std::vector<std::string> &violations)
{
    const bool graph = !spec.graph.empty();
    const bool gpu = spec.system == "gpu";
    if (!graph && !modelFromToken(spec.model))
        violations.push_back("unknown model '" + spec.model + "' ("
                             + modelTokenList() + ")");
    if (!systemFromToken(spec.system))
        violations.push_back("unknown system '" + spec.system + "' ("
                             + systemTokenList() + ")");
    if (graph && spec.batch != 0)
        violations.push_back("'batch' does not apply to 'graph' "
                             "workloads: a serialized graph bakes its "
                             "batch into its op costs");
    if (graph && gpu)
        violations.push_back("the analytic GPU model needs per-model "
                             "calibration and cannot run 'graph' "
                             "workloads");
    if (gpu && (spec.faultRate > 0.0 || spec.killBanks > 0))
        violations.push_back("fault injection needs a simulated "
                             "system; the analytic GPU model has no "
                             "fault layer");
}

namespace {

SimulateSpec
parseSimulateSpec(const json::Value &object)
{
    SimulateSpec spec;
    std::vector<std::string> violations;
    bool seen[kNumSimFields] = {};
    bool seen_seed = false;
    for (const auto &[name, value] : object.members()) {
        const std::string key(name);
        if (name == "fault_seed") {
            if (std::exchange(seen_seed, true)) {
                violations.push_back("duplicate key '" + key + "'");
                continue;
            }
            // A full-range uint64, read exactly: never through a
            // double.
            try {
                spec.faultSeed = value.asUInt64();
            } catch (const json::Error &) {
                violations.push_back(
                    "sim field 'fault_seed' must be an unsigned 64-bit "
                    "integer, got "
                    + std::string(value.isNumber()
                                      ? value.numberText()
                                      : json::kindName(value.kind())));
            }
            continue;
        }
        const std::size_t index = fieldIndex(name);
        if (index == kNumSimFields) {
            violations.push_back("unknown key '" + key + "'");
            continue;
        }
        if (std::exchange(seen[index], true)) {
            violations.push_back("duplicate key '" + key + "'");
            continue;
        }
        if (value.isNull() || value.isArray() || value.isObject()) {
            violations.push_back("sim field '" + key
                                 + "' has an unsupported JSON type");
            continue;
        }
        const FieldRule &f = kSimFields[index];
        if (value.kind() != f.kind) {
            const bool integer =
                value.isNumber()
                && value.numberText().find_first_of(".eE")
                       == std::string_view::npos;
            violations.push_back("key '" + key + "' must be "
                                 + typeName(f.kind, f.whole)
                                 + ", got "
                                 + typeName(value.kind(), integer));
            continue;
        }
        const auto field = static_cast<SimField>(index);
        switch (field) {
          case SimField::Model: spec.model = value.asString(); break;
          case SimField::Graph: spec.graph = value.asString(); break;
          case SimField::System: spec.system = value.asString(); break;
          case SimField::Rc: spec.rc = value.asBool(); break;
          case SimField::Op: spec.op = value.asBool(); break;
          default:
            // A number no conversion reads whole ("steps":1e) throws
            // json::Error here.
            setSimNumber(spec, field, value.asDouble(), violations);
        }
    }
    if (!spec.graph.empty()
        && seen[static_cast<std::size_t>(SimField::Model)])
        violations.push_back("'graph' and 'model' are mutually "
                             "exclusive; a graph document is a "
                             "complete workload");
    checkSimSpec(spec, violations);
    if (!violations.empty()) {
        std::string all;
        for (const std::string &v : violations) {
            if (!all.empty())
                all += "; ";
            all += v;
        }
        throw ProtocolError("invalid sim config: " + all);
    }
    return spec;
}

void
appendSimFields(std::string &out, const SimulateSpec &sim)
{
    // Every key comes from the field table.
    auto key = [&out](SimField field) -> std::string & {
        out += out.back() == '{' ? "\"" : ",\"";
        out += rule(field).name;
        return out += "\":";
    };
    auto text = [&](SimField field, const std::string &value) {
        key(field) += '"';
        json::escape(out, value);
        out += '"';
    };
    out += "\"sim\":{";
    // A graph workload replaces the model field on the wire; the
    // parser rejects requests carrying both.
    if (sim.graph.empty())
        text(SimField::Model, sim.model);
    else
        text(SimField::Graph, sim.graph);
    text(SimField::System, sim.system);
    key(SimField::Steps) += std::to_string(sim.steps);
    key(SimField::FreqScale) += json::numberToString(sim.freqScale);
    key(SimField::ProgrPims) += std::to_string(sim.progrPims);
    key(SimField::Batch) += std::to_string(sim.batch);
    key(SimField::Rc) += sim.rc ? "true" : "false";
    key(SimField::Op) += sim.op ? "true" : "false";
    key(SimField::FaultRate) += json::numberToString(sim.faultRate);
    key(SimField::KillBanks) += std::to_string(sim.killBanks);
    out += ",\"fault_seed\":" + std::to_string(sim.faultSeed) + "}";
}

} // namespace

std::string
encodeRequest(const Request &request)
{
    std::string out = "{\"v\":" + std::to_string(protocolVersion);
    out += ",\"id\":" + std::to_string(request.id);
    out += std::string(",\"kind\":\"") + requestKindName(request.kind)
           + "\"";
    if (request.deadlineMs > 0.0)
        out += ",\"deadline_ms\":"
               + json::numberToString(request.deadlineMs);
    if (request.kind == RequestKind::Simulate) {
        out += ",";
        appendSimFields(out, request.sim);
    }
    out += "}";
    return out;
}

namespace {

/** parseRequest() past the parse: validate the object @p root. */
Request
parseRequestObject(const json::Value &root)
{
    Request request;
    bool saw_v = false, saw_id = false, saw_kind = false;
    bool saw_deadline = false, saw_sim = false;
    const json::Value *sim_object = nullptr;
    // A member given twice would leave the request and its error echo
    // reading different copies.
    auto once = [](bool &saw, std::string_view key) {
        if (std::exchange(saw, true))
            throw ProtocolError("duplicate request field '"
                                + std::string(key) + "'");
    };
    try {
        for (const auto &[key, value] : root.members()) {
            if (key == "v") {
                once(saw_v, key);
                if (value.asInt64() != protocolVersion)
                    throw ProtocolError(
                        "unsupported protocol version "
                        + std::string(value.numberText())
                        + " (this daemon speaks v"
                        + std::to_string(protocolVersion) + ")");
            } else if (key == "id") {
                once(saw_id, key);
                request.id = value.asUInt64();
            } else if (key == "kind") {
                once(saw_kind, key);
                const std::string_view kind = value.asString();
                if (kind == "ping")
                    request.kind = RequestKind::Ping;
                else if (kind == "stats")
                    request.kind = RequestKind::Stats;
                else if (kind == "simulate")
                    request.kind = RequestKind::Simulate;
                else
                    throw ProtocolError("unknown request kind '"
                                        + std::string(kind) + "'");
            } else if (key == "deadline_ms") {
                once(saw_deadline, key);
                request.deadlineMs = value.asDouble();
                if (!(request.deadlineMs >= 0.0)
                    || request.deadlineMs > 1e9)
                    throw ProtocolError(
                        "deadline_ms out of range [0, 1e9]");
            } else if (key == "sim") {
                once(saw_sim, key);
                if (!value.isObject())
                    throw ProtocolError("'sim' must be an object");
                sim_object = &value;
            } else {
                throw ProtocolError("unknown request field '"
                                    + std::string(key) + "'");
            }
        }
        if (!saw_v)
            throw ProtocolError("request is missing 'v'");
        if (!saw_id)
            throw ProtocolError("request is missing 'id'");
        if (!saw_kind)
            throw ProtocolError("request is missing 'kind'");
        if (request.kind == RequestKind::Simulate) {
            if (sim_object != nullptr)
                request.sim = parseSimulateSpec(*sim_object);
            // No sim object = all defaults, same as bare hpim_cli.
        } else if (sim_object != nullptr) {
            throw ProtocolError(
                "'sim' is only valid on simulate requests");
        }
    } catch (const json::Error &e) {
        // A sim number no conversion can read ("steps":1e) lands
        // here too.
        throw ProtocolError(e.what());
    }
    return request;
}

} // namespace

Request
parseRequest(const std::string &payload)
{
    json::Value root;
    try {
        root = json::parse(payload);
    } catch (const json::Error &e) {
        throw ProtocolError(e.what());
    }
    if (!root.isObject())
        throw ProtocolError("request is not a JSON object");
    try {
        return parseRequestObject(root);
    } catch (ProtocolError &e) {
        // Best-effort id echo, so the client can match the error to
        // its request even when validation failed late.
        if (const json::Value *id = root.find("id")) {
            try {
                e.id = id->asUInt64();
            } catch (const json::Error &) {
            }
        }
        throw;
    }
}

// -------------------------------------------------------------- responses

namespace {

std::string
responseHead(std::uint64_t id, const char *status)
{
    return "{\"v\":" + std::to_string(protocolVersion) + ",\"id\":"
           + std::to_string(id) + ",\"status\":\"" + status + "\"";
}

/** Re-emit a parsed JSON value losslessly (numbers keep their raw
 *  source token), for carrying a stats object through the client. */
void
dumpValue(const json::Value &value, std::string &out)
{
    switch (value.kind()) {
      case json::Value::Kind::Null:
        out += "null";
        break;
      case json::Value::Kind::Bool:
        out += value.asBool() ? "true" : "false";
        break;
      case json::Value::Kind::Number:
        out += value.numberText();
        break;
      case json::Value::Kind::String:
        out += '"';
        json::escape(out, value.asString());
        out += '"';
        break;
      case json::Value::Kind::Array: {
        out += '[';
        bool first = true;
        for (const json::Value &element : value.elements()) {
            if (!first)
                out += ',';
            first = false;
            dumpValue(element, out);
        }
        out += ']';
        break;
      }
      case json::Value::Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &[key, element] : value.members()) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            json::escape(out, key);
            out += "\":";
            dumpValue(element, out);
        }
        out += '}';
        break;
      }
    }
}

} // namespace

std::string
encodePong(std::uint64_t id)
{
    return responseHead(id, "ok") + ",\"kind\":\"pong\"}";
}

std::string
encodeStats(std::uint64_t id, const std::string &stats_object)
{
    return responseHead(id, "ok") + ",\"kind\":\"stats\",\"stats\":"
           + stats_object + "}";
}

std::string
encodeReport(std::uint64_t id,
             const hpim::rt::ExecutionReport &report, double queue_ms,
             double run_ms)
{
    // The report is embedded exactly as harness::writeJson emits it;
    // the thin client round-trips it through reportFromJson ->
    // writeJson, which report_io guarantees is byte-identical.
    return responseHead(id, "ok") + ",\"kind\":\"report\",\"queue_ms\":"
           + json::numberToString(queue_ms) + ",\"run_ms\":"
           + json::numberToString(run_ms) + ",\"report\":"
           + hpim::harness::jsonString(report) + "}";
}

std::string
encodeError(std::uint64_t id, ErrorCode code,
            const std::string &message)
{
    std::string out = responseHead(id, "error");
    out += std::string(",\"error\":{\"code\":\"") + errorCodeName(code)
           + "\",\"message\":\"";
    json::escape(out, message);
    out += "\"}}";
    return out;
}

Response
parseResponse(const std::string &payload)
{
    json::Value root;
    try {
        root = json::parse(payload);
    } catch (const json::Error &e) {
        throw ProtocolError(e.what());
    }
    if (!root.isObject())
        throw ProtocolError("response is not a JSON object");

    Response response;
    try {
        if (root.at("v").asInt64() != protocolVersion)
            throw ProtocolError("unsupported response version");
        response.id = root.at("id").asUInt64();
        const std::string_view status = root.at("status").asString();
        if (status == "ok") {
            response.ok = true;
            response.kind = std::string(root.at("kind").asString());
            if (const json::Value *queue_ms = root.find("queue_ms"))
                response.queueMs = queue_ms->asDouble();
            if (const json::Value *run_ms = root.find("run_ms"))
                response.runMs = run_ms->asDouble();
            if (const json::Value *report = root.find("report")) {
                response.report = hpim::harness::reportFromJson(*report);
                response.hasReport = true;
            }
            if (const json::Value *stats = root.find("stats"))
                dumpValue(*stats, response.statsJson);
        } else if (status == "error") {
            response.ok = false;
            const json::Value &error = root.at("error");
            const std::string_view code = error.at("code").asString();
            std::optional<ErrorCode> parsed = errorCodeFromName(code);
            if (!parsed)
                throw ProtocolError("unknown error code '"
                                    + std::string(code) + "'");
            response.code = *parsed;
            response.message = std::string(error.at("message").asString());
        } else {
            throw ProtocolError("unknown status '" + std::string(status)
                                + "'");
        }
    } catch (const json::Error &e) {
        throw ProtocolError(e.what());
    } catch (const hpim::harness::ParseError &e) {
        throw ProtocolError(e.what());
    }
    return response;
}

} // namespace hpim::serve
