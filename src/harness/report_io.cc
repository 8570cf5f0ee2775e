#include "harness/report_io.hh"

#include <cerrno>
#include <limits>
#include <sstream>

#include "harness/failpoint.hh"
#include "harness/json.hh"
#include "harness/json_writer.hh"

namespace hpim::harness {

using hpim::rt::ExecutionReport;
using hpim::rt::placedOnFromName;
using hpim::rt::placedOnName;

namespace {

/** First line of a CSV document, naming its layout (reportCsvVersion). */
const char *const kCsvVersionLine = "#hpim-report-csv v1";

// Covers every report serialization: CLI stdout, inspect_schedule
// files, journal record bodies (jsonString) and the daemon's
// encodeReport payloads. A relaxed-load no-op until armed.
FailPoint fpReportWrite("report.write");

/** Typed escalation of a stream that went bad mid-write. Streams
 *  hide the errno, so the best available classification is EIO. */
void
checkStream(const std::ostream &os, const char *what)
{
    if (!os)
        throw IoError("write", what, EIO);
}

/** CSV cells share the writer's lossless double format. */
std::string
num(double value)
{
    return json::numberToString(value);
}

// ---- Strict JSON object consumption. ------------------------------

/**
 * Walks one JSON object, handing out each known field exactly once;
 * finish() turns every entry nobody asked for into a ParseError, so
 * unknown and duplicated fields are both caught.
 */
class ObjectReader
{
  public:
    explicit ObjectReader(const json::Value &value) : _value(value)
    {
        if (!value.isObject())
            throw ParseError("expected a JSON object", value.line());
        _used.assign(value.size(), false);
    }

    const json::Value &
    get(const char *key)
    {
        const json::Value *found = nullptr;
        std::size_t i = 0;
        for (const auto &[name, value] : _value.members()) {
            if (name == key) {
                if (found)
                    throw ParseError("duplicate field", value.line(),
                                     key);
                found = &value;
                _used[i] = true;
            }
            ++i;
        }
        if (!found)
            throw ParseError("missing field", _value.line(), key);
        return *found;
    }

    double
    number(const char *key)
    {
        return get(key).asDouble();
    }

    std::uint64_t
    u64(const char *key)
    {
        return get(key).asUInt64();
    }

    std::uint32_t
    u32(const char *key)
    {
        std::uint64_t value = get(key).asUInt64();
        if (value > std::numeric_limits<std::uint32_t>::max())
            throw ParseError("value out of 32-bit range", _value.line(),
                             key);
        return static_cast<std::uint32_t>(value);
    }

    std::string
    str(const char *key)
    {
        return std::string(get(key).asString());
    }

    /** Every field must have been consumed. */
    void
    finish() const
    {
        std::size_t i = 0;
        for (const auto &[name, value] : _value.members())
            if (!_used[i++])
                throw ParseError("unknown field", value.line(),
                                 std::string(name));
    }

  private:
    const json::Value &_value;
    std::vector<bool> _used;
};

/** Write a CSV text cell: as is, unless it holds a comma, a quote, CR
 *  or LF; then inside double quotes with each inner quote doubled
 *  (RFC 4180). A user graph's name is free text. */
void
csvText(std::ostream &os, const std::string &cell)
{
    if (cell.find_first_of(",\"\r\n") == std::string::npos) {
        os << cell;
        return;
    }
    os << '"';
    for (char c : cell) {
        if (c == '"')
            os << '"';
        os << c;
    }
    os << '"';
}

} // namespace

void
writeCsvHeader(std::ostream &os)
{
    os << "config,workload,steps,step_s,op_s,data_movement_s,sync_s,"
          "cpu_busy_s,progr_busy_s,fixed_unit_s,fixed_utilization,"
          "host_launches,recursive_launches,link_bytes,"
          "internal_bytes,energy_per_step_j,avg_power_w,edp,"
          "transient_faults,kernel_stalls,retries,ops_degraded,"
          "ops_evicted,retry_backoff_s,banks_failed,units_lost,"
          "throttle_events\n";
}

void
writeCsvRow(std::ostream &os, const ExecutionReport &report)
{
    csvText(os, report.configName);
    os << ',';
    csvText(os, report.workloadName);
    os << ',' << report.stepsSimulated << ',' << num(report.stepSec) << ','
       << num(report.opSec) << ',' << num(report.dataMovementSec)
       << ',' << num(report.syncSec) << ',' << num(report.cpuBusySec)
       << ',' << num(report.progrBusySec) << ','
       << num(report.fixedUnitSeconds) << ','
       << num(report.fixedUtilization) << ',' << report.hostLaunches
       << ',' << report.recursiveLaunches << ','
       << num(report.linkBytes) << ',' << num(report.internalBytes)
       << ',' << num(report.energyPerStepJ) << ','
       << num(report.averagePowerW) << ',' << num(report.edp) << ','
       << report.transientFaults << ',' << report.kernelStalls << ','
       << report.retries << ',' << report.opsDegraded << ','
       << report.opsEvicted << ',' << num(report.retryBackoffSec)
       << ',' << report.banksFailed << ',' << report.unitsLost << ','
       << report.throttleEvents << '\n';
}

void
writeCsv(std::ostream &os, const std::vector<ExecutionReport> &reports)
{
    fpCheck(fpReportWrite, "write", "report csv stream");
    os << kCsvVersionLine << '\n';
    writeCsvHeader(os);
    for (const auto &report : reports)
        writeCsvRow(os, report);
    checkStream(os, "report csv stream");
}

void
writeJson(std::ostream &os, const ExecutionReport &report)
{
    fpCheck(fpReportWrite, "write", "report json stream");
    json::Writer w(os);
    w.beginObject();
    w.field("schema_version",
            static_cast<std::int64_t>(reportSchemaVersion));
    w.field("config", report.configName);
    w.field("workload", report.workloadName);
    w.field("steps", report.stepsSimulated);
    w.field("makespan_s", report.makespanSec);
    w.field("step_s", report.stepSec);

    w.key("breakdown").beginObject();
    w.field("op_s", report.opSec);
    w.field("data_movement_s", report.dataMovementSec);
    w.field("sync_s", report.syncSec);
    w.endObject();

    w.key("occupancy").beginObject();
    w.field("cpu_busy_s", report.cpuBusySec);
    w.field("progr_busy_s", report.progrBusySec);
    w.field("fixed_unit_s", report.fixedUnitSeconds);
    w.endObject();

    w.field("fixed_utilization", report.fixedUtilization);

    w.key("launches").beginObject();
    w.field("host", report.hostLaunches);
    w.field("recursive", report.recursiveLaunches);
    w.endObject();

    w.key("traffic").beginObject();
    w.field("link_bytes", report.linkBytes);
    w.field("internal_bytes", report.internalBytes);
    w.endObject();

    w.key("energy").beginObject();
    w.field("cpu_j", report.cpuEnergyJ);
    w.field("progr_j", report.progrEnergyJ);
    w.field("fixed_j", report.fixedEnergyJ);
    w.field("dram_j", report.dramEnergyJ);
    w.field("total_j", report.totalEnergyJ);
    w.endObject();

    w.field("energy_per_step_j", report.energyPerStepJ);
    w.field("avg_power_w", report.averagePowerW);
    w.field("edp", report.edp);

    w.key("placements").beginObject();
    for (const auto &[placement, count] : report.opsByPlacement)
        w.field(placedOnName(placement), count);
    w.endObject();

    w.key("resilience").beginObject();
    w.field("transient_faults", report.transientFaults);
    w.field("kernel_stalls", report.kernelStalls);
    w.field("retries", report.retries);
    w.field("ops_degraded", report.opsDegraded);
    w.field("ops_evicted", report.opsEvicted);
    w.field("retry_backoff_s", report.retryBackoffSec);
    w.field("banks_failed", report.banksFailed);
    w.field("units_lost", report.unitsLost);
    w.field("throttle_events", report.throttleEvents);
    w.key("capacity_timeline").beginArray();
    for (const auto &sample : report.capacityTimeline) {
        w.beginArray();
        w.value(sample.timeSec);
        w.value(sample.units);
        w.endArray();
    }
    w.endArray();
    w.endObject();

    w.key("metrics").beginArray();
    for (const auto &metric : report.metrics) {
        w.beginObject();
        w.field("name", metric.name);
        w.field("kind", metricKindName(metric.kind));
        switch (metric.kind) {
          case obs::MetricKind::Counter:
            w.field("count", metric.count);
            break;
          case obs::MetricKind::Gauge:
            w.field("value", metric.value);
            break;
          case obs::MetricKind::Histogram:
            w.field("count", metric.count);
            w.field("sum", metric.sum);
            w.field("min", metric.min);
            w.field("max", metric.max);
            w.key("buckets").beginArray();
            for (const auto &bucket : metric.buckets) {
                w.beginArray();
                w.value(bucket.index);
                w.value(bucket.count);
                w.endArray();
            }
            w.endArray();
            break;
        }
        w.endObject();
    }
    w.endArray();

    w.endObject();
    checkStream(os, "report json stream");
}

std::string
jsonString(const ExecutionReport &report)
{
    std::ostringstream os;
    writeJson(os, report);
    return os.str();
}

ExecutionReport
reportFromJson(const json::Value &root)
{
    ObjectReader top(root);

    int version = static_cast<int>(top.get("schema_version").asInt64());
    if (version != reportSchemaVersion)
        throw ParseError("unsupported schema version "
                             + std::to_string(version) + " (expected "
                             + std::to_string(reportSchemaVersion)
                             + ")",
                         root.line(), "schema_version");

    ExecutionReport report;
    report.configName = top.str("config");
    report.workloadName = top.str("workload");
    report.stepsSimulated = top.u32("steps");
    report.makespanSec = top.number("makespan_s");
    report.stepSec = top.number("step_s");

    ObjectReader breakdown(top.get("breakdown"));
    report.opSec = breakdown.number("op_s");
    report.dataMovementSec = breakdown.number("data_movement_s");
    report.syncSec = breakdown.number("sync_s");
    breakdown.finish();

    ObjectReader occupancy(top.get("occupancy"));
    report.cpuBusySec = occupancy.number("cpu_busy_s");
    report.progrBusySec = occupancy.number("progr_busy_s");
    report.fixedUnitSeconds = occupancy.number("fixed_unit_s");
    occupancy.finish();

    report.fixedUtilization = top.number("fixed_utilization");

    ObjectReader launches(top.get("launches"));
    report.hostLaunches = launches.u64("host");
    report.recursiveLaunches = launches.u64("recursive");
    launches.finish();

    ObjectReader traffic(top.get("traffic"));
    report.linkBytes = traffic.number("link_bytes");
    report.internalBytes = traffic.number("internal_bytes");
    traffic.finish();

    ObjectReader energy(top.get("energy"));
    report.cpuEnergyJ = energy.number("cpu_j");
    report.progrEnergyJ = energy.number("progr_j");
    report.fixedEnergyJ = energy.number("fixed_j");
    report.dramEnergyJ = energy.number("dram_j");
    report.totalEnergyJ = energy.number("total_j");
    energy.finish();

    report.energyPerStepJ = top.number("energy_per_step_j");
    report.averagePowerW = top.number("avg_power_w");
    report.edp = top.number("edp");

    const json::Value &placements = top.get("placements");
    if (!placements.isObject())
        throw ParseError("expected an object", placements.line(),
                         "placements");
    for (const auto &[key, count] : placements.members()) {
        const std::string name(key);
        rt::PlacedOn placement;
        if (!placedOnFromName(name, placement))
            throw ParseError("unknown placement '" + name + "'",
                             count.line(), "placements");
        if (report.opsByPlacement.count(placement))
            throw ParseError("duplicate placement '" + name + "'",
                             count.line(), "placements");
        report.opsByPlacement[placement] = count.asUInt64();
    }

    ObjectReader resilience(top.get("resilience"));
    report.transientFaults = resilience.u64("transient_faults");
    report.kernelStalls = resilience.u64("kernel_stalls");
    report.retries = resilience.u64("retries");
    report.opsDegraded = resilience.u64("ops_degraded");
    report.opsEvicted = resilience.u64("ops_evicted");
    report.retryBackoffSec = resilience.number("retry_backoff_s");
    report.banksFailed = resilience.u32("banks_failed");
    report.unitsLost = resilience.u32("units_lost");
    report.throttleEvents = resilience.u64("throttle_events");
    const json::Value &timeline = resilience.get("capacity_timeline");
    if (!timeline.isArray())
        throw ParseError("expected an array", timeline.line(),
                         "capacity_timeline");
    for (const json::Value &sample : timeline.elements()) {
        if (!sample.isArray() || sample.size() != 2)
            throw ParseError("expected a [time, units] pair",
                             sample.line(), "capacity_timeline");
        ExecutionReport::CapacitySample cs;
        cs.timeSec = sample[0].asDouble();
        std::uint64_t units = sample[1].asUInt64();
        if (units > std::numeric_limits<std::uint32_t>::max())
            throw ParseError("units out of 32-bit range", sample.line(),
                             "capacity_timeline");
        cs.units = static_cast<std::uint32_t>(units);
        report.capacityTimeline.push_back(cs);
    }
    resilience.finish();

    const json::Value &metrics = top.get("metrics");
    if (!metrics.isArray())
        throw ParseError("expected an array", metrics.line(), "metrics");
    for (const json::Value &entry : metrics.elements()) {
        ObjectReader metric(entry);
        obs::MetricSample sample;
        sample.name = metric.str("name");
        std::string kind = metric.str("kind");
        if (kind == "counter") {
            sample.kind = obs::MetricKind::Counter;
            sample.count = metric.u64("count");
        } else if (kind == "gauge") {
            sample.kind = obs::MetricKind::Gauge;
            sample.value = metric.number("value");
        } else if (kind == "histogram") {
            sample.kind = obs::MetricKind::Histogram;
            sample.count = metric.u64("count");
            sample.sum = metric.number("sum");
            sample.min = metric.number("min");
            sample.max = metric.number("max");
            const json::Value &buckets = metric.get("buckets");
            if (!buckets.isArray())
                throw ParseError("expected an array", buckets.line(),
                                 "buckets");
            for (const json::Value &bucket : buckets.elements()) {
                if (!bucket.isArray() || bucket.size() != 2)
                    throw ParseError("expected an [index, count] pair",
                                     bucket.line(), "buckets");
                obs::HistogramBucket hb;
                std::uint64_t index = bucket[0].asUInt64();
                if (index >= obs::kHistogramBuckets)
                    throw ParseError("bucket index out of range",
                                     bucket.line(), "buckets");
                hb.index = static_cast<std::uint32_t>(index);
                hb.count = bucket[1].asUInt64();
                sample.buckets.push_back(hb);
            }
        } else {
            throw ParseError("unknown metric kind '" + kind + "'",
                             entry.line(), "kind");
        }
        metric.finish();
        report.metrics.push_back(std::move(sample));
    }

    top.finish();
    return report;
}

ExecutionReport
readJson(const std::string &text)
{
    try {
        return reportFromJson(json::parse(text));
    } catch (const json::Error &e) {
        throw ParseError(e.what(), e.line);
    }
}

} // namespace hpim::harness
