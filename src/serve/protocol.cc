#include "serve/protocol.hh"

#include <cstring>

#include "harness/json.hh"
#include "harness/json_writer.hh"
#include "harness/report_io.hh"
#include "nn/graph_io.hh"
#include "sim/config.hh"

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

/**
 * The validity contract of a request's `sim` object: exactly the
 * hpim_cli flag schema (plus batch and fault_seed, which the CLI
 * parses outside its schema). Shared with the thin client so both
 * ends agree on what a well-formed request is.
 */
sim::ConfigSchema
simSchema()
{
    using sim::ConfigType;
    sim::ConfigSchema schema;
    schema.keys = {
        {"model", ConfigType::String, false, 0.0, 0.0},
        {"graph", ConfigType::String, false, 0.0, 0.0},
        {"system", ConfigType::String, false, 0.0, 0.0},
        {"steps", ConfigType::Int, false, 1.0, 1e6},
        {"freq_scale", ConfigType::Double, false, 1.0 / 64, 128.0},
        {"progr_pims", ConfigType::Int, false, 1.0, 256.0},
        {"batch", ConfigType::Int, false, 0.0, 65536.0},
        {"rc", ConfigType::Bool, false, 0.0, 0.0},
        {"op", ConfigType::Bool, false, 0.0, 0.0},
        {"fault_rate", ConfigType::Double, false, 0.0, 1.0},
        {"kill_banks", ConfigType::Int, false, 0.0, 4096.0},
    };
    return schema;
}

/**
 * Lower a parsed JSON object into a typed sim::Config so the
 * ConfigSchema range/type/unknown-key validation can run on it.
 * JSON numbers become Int when they parse as one, Double otherwise
 * (the schema coerces between the two, matching Config's own rule).
 */
sim::Config
configFromJsonObject(const json::Value &object)
{
    sim::Config config;
    for (const auto &[name, value] : object.members()) {
        // fault_seed is a full-range uint64: it neither fits
        // Config's int64 storage nor survives a double round-trip,
        // so parseSimulateSpec extracts it exactly via asUInt64.
        if (name == "fault_seed")
            continue;
        const std::string key(name);
        switch (value.kind()) {
          case json::Value::Kind::Bool:
            config.set(key, value.asBool());
            break;
          case json::Value::Kind::String:
            config.set(key, std::string(value.asString()));
            break;
          case json::Value::Kind::Number:
            try {
                config.set(key, value.asInt64());
            } catch (const json::Error &) {
                config.set(key, value.asDouble());
            }
            break;
          default:
            throw ProtocolError("sim field '" + key
                                + "' has an unsupported JSON type");
        }
    }
    return config;
}

SimulateSpec
parseSimulateSpec(const json::Value &object)
{
    sim::Config config = configFromJsonObject(object);
    std::vector<std::string> violations = config.validate(simSchema());
    if (!violations.empty()) {
        std::string all;
        for (const std::string &v : violations) {
            if (!all.empty())
                all += "; ";
            all += v;
        }
        throw ProtocolError("invalid sim config: " + all);
    }

    SimulateSpec spec;
    spec.model = config.getString("model", spec.model);
    spec.graph = config.getString("graph", spec.graph);
    spec.system = config.getString("system", spec.system);
    spec.steps = static_cast<std::uint32_t>(
        config.getInt("steps", spec.steps));
    spec.freqScale = config.getDouble("freq_scale", spec.freqScale);
    spec.progrPims = static_cast<std::uint32_t>(
        config.getInt("progr_pims", spec.progrPims));
    spec.batch = static_cast<int>(config.getInt("batch", spec.batch));
    spec.rc = config.getBool("rc", spec.rc);
    spec.op = config.getBool("op", spec.op);
    spec.faultRate = config.getDouble("fault_rate", spec.faultRate);
    spec.killBanks = static_cast<std::uint32_t>(
        config.getInt("kill_banks", spec.killBanks));
    if (const json::Value *seed = object.find("fault_seed")) {
        try {
            spec.faultSeed = seed->asUInt64();
        } catch (const json::Error &) {
            throw ProtocolError(
                "sim field 'fault_seed' must be an unsigned 64-bit "
                "integer, got "
                + std::string(seed->isNumber()
                                  ? seed->numberText()
                                  : json::kindName(seed->kind())));
        }
    }

    if (!spec.graph.empty()) {
        if (object.find("model") != nullptr)
            throw ProtocolError("'graph' and 'model' are mutually "
                                "exclusive; a graph document is a "
                                "complete workload");
        if (spec.batch != 0)
            throw ProtocolError("'batch' does not apply to 'graph' "
                                "workloads: a serialized graph bakes "
                                "its batch into its op costs");
        if (spec.system == "gpu")
            throw ProtocolError("the analytic GPU model needs "
                                "per-model calibration and cannot "
                                "run 'graph' workloads");
        try {
            hpim::nn::loadGraph(spec.graph);
        } catch (const hpim::nn::GraphParseError &e) {
            throw ProtocolError(e.what());
        }
    } else if (!modelFromToken(spec.model)) {
        throw ProtocolError("unknown model '" + spec.model + "' ("
                            + modelTokenList() + ")");
    }
    if (!systemFromToken(spec.system))
        throw ProtocolError("unknown system '" + spec.system + "' ("
                            + systemTokenList() + ")");
    bool faults = spec.faultRate > 0.0 || spec.killBanks > 0;
    if (faults && spec.system == "gpu")
        throw ProtocolError("fault injection needs a simulated "
                            "system; the analytic GPU model has no "
                            "fault layer");
    return spec;
}

void
appendSimFields(std::string &out, const SimulateSpec &sim)
{
    // A graph workload replaces the model field on the wire; the
    // parser rejects requests carrying both.
    if (!sim.graph.empty()) {
        out += "\"sim\":{\"graph\":\"";
        json::escape(out, sim.graph);
    } else {
        out += "\"sim\":{\"model\":\"";
        json::escape(out, sim.model);
    }
    out += "\",\"system\":\"";
    json::escape(out, sim.system);
    out += "\",\"steps\":" + std::to_string(sim.steps);
    out += ",\"freq_scale\":" + json::numberToString(sim.freqScale);
    out += ",\"progr_pims\":" + std::to_string(sim.progrPims);
    out += ",\"batch\":" + std::to_string(sim.batch);
    out += std::string(",\"rc\":") + (sim.rc ? "true" : "false");
    out += std::string(",\"op\":") + (sim.op ? "true" : "false");
    out += ",\"fault_rate\":" + json::numberToString(sim.faultRate);
    out += ",\"kill_banks\":" + std::to_string(sim.killBanks);
    out += ",\"fault_seed\":" + std::to_string(sim.faultSeed);
    out += "}";
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
    const json::Value *sim_object = nullptr;
    try {
        for (const auto &[key, value] : root.members()) {
            if (key == "v") {
                saw_v = true;
                if (value.asInt64() != protocolVersion)
                    throw ProtocolError(
                        "unsupported protocol version "
                        + std::string(value.numberText())
                        + " (this daemon speaks v"
                        + std::to_string(protocolVersion) + ")");
            } else if (key == "id") {
                saw_id = true;
                request.id = value.asUInt64();
            } else if (key == "kind") {
                saw_kind = true;
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
                request.deadlineMs = value.asDouble();
                if (!(request.deadlineMs >= 0.0)
                    || request.deadlineMs > 1e9)
                    throw ProtocolError(
                        "deadline_ms out of range [0, 1e9]");
            } else if (key == "sim") {
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
