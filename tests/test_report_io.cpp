/**
 * @file
 * Unit tests for ExecutionReport CSV/JSON serialization and the
 * strict versioned parser that reads the JSON form back.
 */

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>

#include "baseline/presets.hh"
#include "harness/json.hh"
#include "harness/json_writer.hh"
#include "harness/report_io.hh"
#include "nn/models.hh"
#include "obs/metrics.hh"

using namespace hpim;
using namespace hpim::harness;

namespace {

rt::ExecutionReport
sample()
{
    rt::ExecutionReport r;
    r.configName = "Hetero PIM";
    r.workloadName = "AlexNet";
    r.stepsSimulated = 4;
    r.makespanSec = 0.4;
    r.stepSec = 0.1;
    r.opSec = 0.08;
    r.dataMovementSec = 0.015;
    r.syncSec = 0.005;
    r.cpuBusySec = 0.02;
    r.progrBusySec = 0.3;
    r.fixedUnitSeconds = 12.5;
    r.fixedUtilization = 0.73;
    r.hostLaunches = 120;
    r.recursiveLaunches = 64;
    r.linkBytes = 1.25e9;
    r.internalBytes = 9.5e9;
    r.cpuEnergyJ = 1.0;
    r.progrEnergyJ = 2.0;
    r.fixedEnergyJ = 3.0;
    r.dramEnergyJ = 4.0;
    r.totalEnergyJ = 10.0;
    r.energyPerStepJ = 5.0;
    r.averagePowerW = 50.0;
    r.edp = 0.5;
    r.opsByPlacement[rt::PlacedOn::Cpu] = 10;
    r.opsByPlacement[rt::PlacedOn::FixedPool] = 20;
    r.opsByPlacement[rt::PlacedOn::ProgrRecursive] = 7;
    r.transientFaults = 3;
    r.kernelStalls = 1;
    r.retries = 4;
    r.opsDegraded = 2;
    r.opsEvicted = 1;
    r.retryBackoffSec = 1.5e-4;
    r.banksFailed = 1;
    r.unitsLost = 14;
    r.throttleEvents = 6;
    r.capacityTimeline.push_back({0.0, 444});
    r.capacityTimeline.push_back({0.01, 430});

    // Schema v2: the obs metrics snapshot rides in the report.
    obs::MetricSample counter;
    counter.name = "rt.ops.cpu";
    counter.kind = obs::MetricKind::Counter;
    counter.count = 10;
    obs::MetricSample gauge;
    gauge.name = "pim.alive_units";
    gauge.kind = obs::MetricKind::Gauge;
    gauge.value = 430.5;
    obs::MetricSample hist;
    hist.name = "mem.request_latency_s";
    hist.kind = obs::MetricKind::Histogram;
    hist.count = 3;
    hist.sum = 3.5e-7;
    hist.min = 1e-7;
    hist.max = 1.5e-7;
    hist.buckets = {{40, 1}, {41, 2}};
    r.metrics = {counter, gauge, hist};
    return r;
}

} // namespace

TEST(ReportIo, CsvRowMatchesHeaderArity)
{
    std::ostringstream header, row;
    writeCsvHeader(header);
    writeCsvRow(row, sample());
    auto count = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(count(header.str()), count(row.str()));
}

TEST(ReportIo, CsvBatchHasVersionHeaderPlusRows)
{
    std::ostringstream os;
    writeCsv(os, {sample(), sample(), sample()});
    std::string text = os.str();
    // Version line + header + three rows.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
    EXPECT_EQ(text.rfind("#hpim-report-csv v1\n", 0), 0u);
    EXPECT_NE(text.find("\nconfig,workload"), std::string::npos);
}

TEST(ReportIo, JsonContainsKeyFields)
{
    std::ostringstream os;
    writeJson(os, sample());
    std::string text = os.str();
    EXPECT_NE(text.find("\"config\":\"Hetero PIM\""),
              std::string::npos);
    EXPECT_NE(text.find("\"workload\":\"AlexNet\""),
              std::string::npos);
    EXPECT_NE(text.find("\"fixed\":20"), std::string::npos);
    EXPECT_NE(text.find("\"cpu\":10"), std::string::npos);
}

TEST(ReportIo, ResilienceFieldsSerialized)
{
    std::ostringstream csv, json;
    writeCsv(csv, {sample()});
    writeJson(json, sample());
    EXPECT_NE(csv.str().find("transient_faults"), std::string::npos);
    EXPECT_NE(csv.str().find("banks_failed"), std::string::npos);
    EXPECT_NE(json.str().find("\"resilience\":{"), std::string::npos);
    EXPECT_NE(json.str().find("\"transient_faults\":3"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"units_lost\":14"), std::string::npos);
    EXPECT_NE(json.str().find("\"capacity_timeline\":[[0,444],"),
              std::string::npos);
}

TEST(ReportIo, JsonBracesBalanced)
{
    std::ostringstream os;
    writeJson(os, sample());
    int depth = 0;
    for (char c : os.str()) {
        if (c == '{') ++depth;
        if (c == '}') --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(ReportIo, RealReportRoundTripsThroughCsv)
{
    auto report = baseline::runSystem(baseline::SystemKind::HeteroPim,
                                      nn::ModelId::Dcgan, 2);
    std::ostringstream os;
    writeCsv(os, {report});
    // The workload name and a plausible step time appear.
    EXPECT_NE(os.str().find("DCGAN"), std::string::npos);
    EXPECT_NE(os.str().find("Hetero PIM"), std::string::npos);
}

// ---- JSON round-tripping. -----------------------------------------

TEST(ReportIo, JsonSerializeParseReserializeIsIdentical)
{
    // The crash-safe journal depends on this: a report written,
    // parsed back, and written again must be byte-identical,
    // including every PR2 resilience field and the timeline.
    std::string once = jsonString(sample());
    rt::ExecutionReport parsed = readJson(once);
    EXPECT_EQ(jsonString(parsed), once);
}

TEST(ReportIo, JsonRoundTripPreservesEveryField)
{
    rt::ExecutionReport in = sample();
    rt::ExecutionReport out = readJson(jsonString(in));
    EXPECT_EQ(out.configName, in.configName);
    EXPECT_EQ(out.workloadName, in.workloadName);
    EXPECT_EQ(out.stepsSimulated, in.stepsSimulated);
    EXPECT_EQ(out.makespanSec, in.makespanSec);
    EXPECT_EQ(out.stepSec, in.stepSec);
    EXPECT_EQ(out.opSec, in.opSec);
    EXPECT_EQ(out.dataMovementSec, in.dataMovementSec);
    EXPECT_EQ(out.syncSec, in.syncSec);
    EXPECT_EQ(out.cpuBusySec, in.cpuBusySec);
    EXPECT_EQ(out.progrBusySec, in.progrBusySec);
    EXPECT_EQ(out.fixedUnitSeconds, in.fixedUnitSeconds);
    EXPECT_EQ(out.fixedUtilization, in.fixedUtilization);
    EXPECT_EQ(out.hostLaunches, in.hostLaunches);
    EXPECT_EQ(out.recursiveLaunches, in.recursiveLaunches);
    EXPECT_EQ(out.linkBytes, in.linkBytes);
    EXPECT_EQ(out.internalBytes, in.internalBytes);
    EXPECT_EQ(out.cpuEnergyJ, in.cpuEnergyJ);
    EXPECT_EQ(out.progrEnergyJ, in.progrEnergyJ);
    EXPECT_EQ(out.fixedEnergyJ, in.fixedEnergyJ);
    EXPECT_EQ(out.dramEnergyJ, in.dramEnergyJ);
    EXPECT_EQ(out.totalEnergyJ, in.totalEnergyJ);
    EXPECT_EQ(out.energyPerStepJ, in.energyPerStepJ);
    EXPECT_EQ(out.averagePowerW, in.averagePowerW);
    EXPECT_EQ(out.edp, in.edp);
    EXPECT_EQ(out.opsByPlacement, in.opsByPlacement);
    EXPECT_EQ(out.transientFaults, in.transientFaults);
    EXPECT_EQ(out.kernelStalls, in.kernelStalls);
    EXPECT_EQ(out.retries, in.retries);
    EXPECT_EQ(out.opsDegraded, in.opsDegraded);
    EXPECT_EQ(out.opsEvicted, in.opsEvicted);
    EXPECT_EQ(out.retryBackoffSec, in.retryBackoffSec);
    EXPECT_EQ(out.banksFailed, in.banksFailed);
    EXPECT_EQ(out.unitsLost, in.unitsLost);
    EXPECT_EQ(out.throttleEvents, in.throttleEvents);
    EXPECT_EQ(out.metrics, in.metrics);
    ASSERT_EQ(out.capacityTimeline.size(),
              in.capacityTimeline.size());
    for (std::size_t i = 0; i < in.capacityTimeline.size(); ++i) {
        EXPECT_EQ(out.capacityTimeline[i].timeSec,
                  in.capacityTimeline[i].timeSec);
        EXPECT_EQ(out.capacityTimeline[i].units,
                  in.capacityTimeline[i].units);
    }
}

TEST(ReportIo, RealSimulatedReportRoundTripsThroughJson)
{
    auto report = baseline::runSystem(baseline::SystemKind::HeteroPim,
                                      nn::ModelId::AlexNet, 2);
    std::string once = jsonString(report);
    EXPECT_EQ(jsonString(readJson(once)), once);
}

TEST(ReportIo, JsonAwkwardDoublesSurviveExactly)
{
    rt::ExecutionReport in = sample();
    in.stepSec = 0.1 + 0.2;          // 0.30000000000000004
    in.linkBytes = 1.0 / 3.0;
    in.edp = 1e-308;                 // near-denormal
    in.retryBackoffSec = 12345678.87654321;
    rt::ExecutionReport out = readJson(jsonString(in));
    EXPECT_EQ(out.stepSec, in.stepSec);
    EXPECT_EQ(out.linkBytes, in.linkBytes);
    EXPECT_EQ(out.edp, in.edp);
    EXPECT_EQ(out.retryBackoffSec, in.retryBackoffSec);

    // The writer's digits are printf's "%.17g", character for
    // character: for the edge values and for random bit patterns
    // (NaNs, infinities and subnormals included).
    auto printf17g = [](double value) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        return std::string(buf);
    };
    using limits = std::numeric_limits<double>;
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 0.1 + 0.2, 1.0 / 3.0, 1e-308, 1e16, 1e17,
        1e21, 12345678.87654321, limits::denorm_min(), limits::min(),
        limits::max(), limits::lowest(), limits::epsilon(),
        limits::infinity(), -limits::infinity(), limits::quiet_NaN(),
        -limits::quiet_NaN()};
    std::mt19937_64 rng(20);
    for (int i = 0; i < 100'000; ++i)
        values.push_back(std::bit_cast<double>(rng()));
    for (double value : values)
        ASSERT_EQ(json::numberToString(value), printf17g(value));
}

TEST(ReportIo, JsonParserRejectsUnknownField)
{
    std::string text = jsonString(sample());
    text.insert(1, "\"surprise\":1,");
    try {
        readJson(text);
        FAIL() << "unknown field accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.field, "surprise");
    }
}

TEST(ReportIo, JsonParserRejectsMissingField)
{
    std::string text = jsonString(sample());
    auto pos = text.find("\"edp\":");
    auto end = text.find(',', pos);
    text.erase(pos, end - pos + 1);
    try {
        readJson(text);
        FAIL() << "missing field accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.field, "edp");
    }
}

TEST(ReportIo, JsonParserRejectsWrongSchemaVersion)
{
    std::string text = jsonString(sample());
    auto pos = text.find("\"schema_version\":2");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::strlen("\"schema_version\":2"),
                 "\"schema_version\":999");
    try {
        readJson(text);
        FAIL() << "wrong schema version accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.field, "schema_version");
    }
}

TEST(ReportIo, JsonParserRejectsTruncatedDocument)
{
    std::string text = jsonString(sample());
    EXPECT_THROW(readJson(text.substr(0, text.size() / 2)),
                 ParseError);
}

TEST(ReportIo, JsonParserRejectsNegativeCounter)
{
    std::string text = jsonString(sample());
    auto pos = text.find("\"retries\":4");
    text.replace(pos, std::strlen("\"retries\":4"), "\"retries\":-4");
    EXPECT_THROW(readJson(text), ParseError);
}

TEST(ReportIo, IntegerRangeErrorsArePinned)
{
    // The exact diagnostics of the integer conversions behind every
    // report counter, so a change of number parser cannot move them.
    const struct
    {
        const char *from;
        const char *to;
        const char *what;
    } cases[] = {
        {"\"schema_version\":2", "\"schema_version\":9223372036854775808",
         "report parse error: json: expected an integer, got "
         "'9223372036854775808' (line 1) at line 1"},
        {"\"schema_version\":2", "\"schema_version\":2.0",
         "report parse error: json: expected an integer, got '2.0' "
         "(line 1) at line 1"},
        {"\"retries\":4", "\"retries\":18446744073709551616",
         "report parse error: json: expected an integer, got "
         "'18446744073709551616' (line 1) at line 1"},
        {"\"retries\":4", "\"retries\":-4",
         "report parse error: json: expected a non-negative integer, "
         "got '-4' (line 1) at line 1"},
        {"\"retries\":4", "\"retries\":-0",
         "report parse error: json: expected a non-negative integer, "
         "got '-0' (line 1) at line 1"},
        {"\"steps\":4", "\"steps\":4294967296",
         "report parse error: value out of 32-bit range (field 'steps') "
         "at line 1"},
    };
    for (const auto &c : cases) {
        std::string text = jsonString(sample());
        auto pos = text.find(c.from);
        ASSERT_NE(pos, std::string::npos) << c.from;
        text.replace(pos, std::strlen(c.from), c.to);
        try {
            readJson(text);
            ADD_FAILURE() << c.to << " was accepted";
        } catch (const ParseError &e) {
            EXPECT_EQ(std::string(e.what()), c.what) << c.to;
        }
    }
    // The full ranges still load.
    std::string text = jsonString(sample());
    text.replace(text.find("\"retries\":4"), std::strlen("\"retries\":4"),
                 "\"retries\":18446744073709551615");
    EXPECT_EQ(readJson(text).retries, 18446744073709551615ull);
}

// ---- The JSON reader under the report parser. -------------------

TEST(JsonReader, NestingStopsAtMaxDepth)
{
    auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_TRUE(json::parse(nested(json::maxDepth)).isArray());
    try {
        json::parse(nested(json::maxDepth + 1));
        FAIL() << "nesting past maxDepth was accepted";
    } catch (const json::Error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "json: nesting deeper than 64 levels (line 1)");
    }
    // Objects count too.
    std::string objects;
    for (std::size_t i = 0; i <= json::maxDepth; ++i)
        objects += "{\"a\":";
    objects += "0" + std::string(json::maxDepth + 1, '}');
    EXPECT_THROW(json::parse(objects), json::Error);
}

TEST(JsonReader, FlatNodesKeepOrderDuplicatesAndRawNumbers)
{
    json::Value root = json::parse(
        "{\"b\":[1,[2,3],{\"x\":null}],\"a\":\"q\\\"\\u00e9\\n\",\n"
        "\"b\":-1.50e+3,\"t\":true}");
    ASSERT_EQ(root.size(), 4u);
    std::vector<std::string> keys;
    for (const auto &[key, value] : root.members())
        keys.emplace_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{"b", "a", "b", "t"}));
    // find() returns the first of duplicated keys; later ones stay
    // visible to strict readers through members().
    const json::Value &b = root.at("b");
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b[0].asInt64(), 1);
    EXPECT_EQ(b[1][1].asUInt64(), 3u);
    EXPECT_TRUE(b[2].at("x").isNull());
    EXPECT_THROW(b[3], json::Error);
    EXPECT_EQ(root.at("a").asString(), "q\"\xc3\xa9\n");
    EXPECT_EQ(root.at("t").asBool(), true);
    std::size_t i = 0;
    for (const auto &[key, value] : root.members()) {
        if (i++ == 2) {
            EXPECT_EQ(value.numberText(), "-1.50e+3");
            EXPECT_EQ(value.asDouble(), -1500.0);
            EXPECT_EQ(value.line(), 2u);
        }
    }
    EXPECT_THROW(root.at("a").asDouble(), json::Error);
    EXPECT_THROW(root.at("missing"), json::Error);

    // The root owns the document: moving it keeps every view valid.
    json::Value moved = std::move(root);
    EXPECT_TRUE(root.isNull());
    EXPECT_EQ(moved.at("a").asString(), "q\"\xc3\xa9\n");
    EXPECT_EQ(json::parse("\"solo\"").asString(), "solo");
}

TEST(JsonReader, IntegerTokensConvertAsFromCharsDoes)
{
    // asDouble() converts an optional '-' and 1-19 digits through
    // uint64_t; every other token goes through from_chars. Both must
    // give the same double, bit for bit.
    std::vector<std::string> tokens = {
        "0",
        "-0",
        "007",
        "9007199254740991",     // 2^53 - 1
        "9007199254740992",     // 2^53
        "9007199254740993",     // rounds
        "-9007199254740993",
        "9999999999999999999",  // the longest fast-path token
        "18446744073709551615", // 20 digits: from_chars
        "99999999999999999999",
    };
    std::mt19937_64 rng(0x746f6b656e73ULL);
    for (int i = 0; i < 20000; ++i) {
        std::string token = std::to_string(rng() >> (rng() % 64));
        token.insert(0, rng() % 8 == 0 ? 1 + rng() % 3 : 0, '0');
        if (rng() % 2)
            token.insert(0, 1, '-');
        tokens.push_back(token);
    }
    for (const std::string &token : tokens) {
        const json::Value value = json::parse(token);
        double expected = 0.0;
        const auto [end, ec] = std::from_chars(
            token.data(), token.data() + token.size(), expected);
        ASSERT_EQ(ec, std::errc()) << token;
        ASSERT_EQ(end, token.data() + token.size()) << token;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(value.asDouble()),
                  std::bit_cast<std::uint64_t>(expected))
            << token;
    }
}

// ---- CSV bytes. ---------------------------------------------------

namespace {

/** The cells writeCsvRow writes after the workload for sample(). */
const char *const kSampleCells =
    ",4,0.10000000000000001,0.080000000000000002,0.014999999999999999,"
    "0.0050000000000000001,0.02,0.29999999999999999,12.5,"
    "0.72999999999999998,120,64,1250000000,9500000000,5,50,0.5,3,1,4,"
    "2,1,0.00014999999999999999,1,14,6\n";

} // namespace

TEST(ReportIo, CsvRoundTripPreservesCarriedFields)
{
    // The exact document: version line, header, then every carried
    // field at max_digits10.
    std::ostringstream os;
    writeCsv(os, {sample()});
    EXPECT_EQ(os.str(),
              "#hpim-report-csv v1\n"
              "config,workload,steps,step_s,op_s,data_movement_s,sync_s,"
              "cpu_busy_s,progr_busy_s,fixed_unit_s,fixed_utilization,"
              "host_launches,recursive_launches,link_bytes,"
              "internal_bytes,energy_per_step_j,avg_power_w,edp,"
              "transient_faults,kernel_stalls,retries,ops_degraded,"
              "ops_evicted,retry_backoff_s,banks_failed,units_lost,"
              "throttle_events\n"
              "Hetero PIM,AlexNet"
                  + std::string(kSampleCells));
}

TEST(ReportIo, CsvQuotesTextCellsThatNeedIt)
{
    // A user graph's name is free text: a comma, quote, CR or LF puts
    // the cell in double quotes with inner quotes doubled (RFC 4180),
    // so the row keeps the header's arity.
    rt::ExecutionReport r = sample();
    r.workloadName = "edge,cnn \"v2\"";
    std::ostringstream row;
    writeCsvRow(row, r);
    EXPECT_EQ(row.str(), "Hetero PIM,\"edge,cnn \"\"v2\"\"\""
                             + std::string(kSampleCells));

    r.configName = "two\r\nlines";
    r.workloadName = "plain";
    std::ostringstream crlf;
    writeCsvRow(crlf, r);
    EXPECT_EQ(crlf.str(),
              "\"two\r\nlines\",plain" + std::string(kSampleCells));
}
