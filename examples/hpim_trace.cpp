/**
 * @file
 * hpim_trace -- offline analyzer for traces written by --trace.
 *
 * Usage:
 *   hpim_trace summarize FILE [--top K]
 *   hpim_trace diff A B
 *
 * `summarize` strict-parses a Chrome trace-event file (the format
 * TraceSession::exportChromeTrace emits, docs/OBSERVABILITY.md) and
 * prints, per process scope: per-track utilization over the scope's
 * active window, the top-K span names by total time and by total
 * energy (the "energy_j" span argument), and an idle-gap analysis of
 * each track (largest gap, total idle time between spans).
 *
 * `diff` aggregates both traces the same way and prints every span
 * name whose count, total duration or total energy differs. Exit
 * status: 0 when the aggregates match, 1 when they differ -- so a CI
 * job can assert two runs produced equivalent timelines without
 * requiring byte identity.
 *
 * A file that is not valid JSON, or not a valid trace (a missing key,
 * a value of the wrong kind or sign), is fatal: one diagnostic naming
 * the file, exit status 1.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/json.hh"
#include "harness/sweep.hh"
#include "harness/table_printer.hh"
#include "sim/logging.hh"

namespace {

using namespace hpim;
using harness::json::Value;

const char *const kUsage =
    "usage: hpim_trace summarize FILE [--top K]\n"
    "       hpim_trace diff A B";

/** One "X" complete event, microsecond timestamps as on the wire. */
struct Span
{
    std::uint64_t pid = 0;
    std::uint64_t tid = 0;
    double tsUs = 0.0;
    double durUs = 0.0;
    double energyJ = 0.0;
    std::string name;
};

/** A parsed trace: spans, instant counts and track/process names. */
struct Trace
{
    std::vector<Span> spans;
    std::map<std::string, std::uint64_t> instants; ///< name -> count
    std::map<std::uint64_t, std::string> processes;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::string>
        tracks; ///< (pid, tid) -> name
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open trace file '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    fatal_if(!in && !in.eof(), "failed reading '", path, "'");
    return text.str();
}

/** Read the events of a parsed trace document; a missing key or a
 *  value of the wrong kind or range throws json::Error. */
Trace
readTrace(const Value &doc, const std::string &path)
{
    fatal_if(!doc.isObject(), "'", path,
             "' is not a Chrome trace (top level must be an object)");
    const Value &events = doc.at("traceEvents");
    fatal_if(!events.isArray(), "'", path,
             "': traceEvents must be an array");

    Trace trace;
    for (const Value &event : events.elements()) {
        const std::string_view ph = event.at("ph").asString();
        const std::string name(event.at("name").asString());
        std::uint64_t pid = event.at("pid").asUInt64();
        std::uint64_t tid = event.at("tid").asUInt64();
        if (ph == "M") {
            const Value &args = event.at("args");
            if (name == "process_name")
                trace.processes[pid] = args.at("name").asString();
            else if (name == "thread_name")
                trace.tracks[{pid, tid}] = args.at("name").asString();
            continue;
        }
        if (ph == "X") {
            Span span;
            span.pid = pid;
            span.tid = tid;
            span.tsUs = event.at("ts").asDouble();
            span.durUs = event.at("dur").asDouble();
            span.name = name;
            if (const Value *args = event.find("args")) {
                if (const Value *energy = args->find("energy_j"))
                    span.energyJ = energy->asDouble();
            }
            trace.spans.push_back(std::move(span));
        } else if (ph == "i") {
            ++trace.instants[name];
        }
        // "C" counter samples carry no duration; nothing to aggregate.
    }
    return trace;
}

Trace
loadTrace(const std::string &path)
{
    Value doc;
    try {
        doc = harness::json::parse(readFile(path));
    } catch (const harness::json::Error &e) {
        fatal("'", path, "' is not valid JSON: ", e.what());
    }
    try {
        return readTrace(doc, path);
    } catch (const harness::json::Error &e) {
        fatal("'", path, "' is not a valid trace: ", e.what());
    }
}

std::string
fmtUs(double us)
{
    // Simulated runs span micro- to milliseconds; ms keeps the table
    // readable at both ends.
    return harness::fmt(us / 1e3, 3) + " ms";
}

/** Total duration / count / energy of one span name. */
struct NameStats
{
    std::uint64_t count = 0;
    double durUs = 0.0;
    double energyJ = 0.0;
};

std::map<std::string, NameStats>
statsByName(const Trace &trace)
{
    std::map<std::string, NameStats> stats;
    for (const Span &span : trace.spans) {
        NameStats &s = stats[span.name];
        ++s.count;
        s.durUs += span.durUs;
        s.energyJ += span.energyJ;
    }
    return stats;
}

void
printUtilization(const Trace &trace)
{
    struct TrackAgg
    {
        double busyUs = 0.0;
        double firstUs = 0.0;
        double lastUs = 0.0;
        std::uint64_t spans = 0;
        double largestGapUs = 0.0; ///< largest inter-span gap

        double idleUs = 0.0;
        bool seen = false;
    };
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::vector<const Span *>>
        per_track;
    for (const Span &span : trace.spans)
        per_track[{span.pid, span.tid}].push_back(&span);

    std::map<std::pair<std::uint64_t, std::uint64_t>, TrackAgg> agg;
    for (auto &[key, spans] : per_track) {
        // File order is record order (completion), not start order;
        // the gap sweep needs start-sorted spans.
        std::sort(spans.begin(), spans.end(),
                  [](const Span *x, const Span *y) {
                      return x->tsUs < y->tsUs;
                  });
        TrackAgg &a = agg[key];
        for (const Span *span : spans) {
            double end = span->tsUs + span->durUs;
            if (!a.seen) {
                a.seen = true;
                a.firstUs = span->tsUs;
                a.lastUs = end;
            } else {
                if (span->tsUs > a.lastUs) {
                    double gap = span->tsUs - a.lastUs;
                    a.idleUs += gap;
                    a.largestGapUs = std::max(a.largestGapUs, gap);
                }
                a.lastUs = std::max(a.lastUs, end);
            }
            a.busyUs += span->durUs;
            ++a.spans;
        }
    }
    if (agg.empty()) {
        std::cout << "no spans recorded\n";
        return;
    }
    harness::TablePrinter table({"scope", "track", "spans", "busy",
                                 "window", "util", "idle",
                                 "largest gap"});
    for (const auto &[key, a] : agg) {
        double window = a.lastUs - a.firstUs;
        auto pname = trace.processes.find(key.first);
        auto tname = trace.tracks.find(key);
        table.addRow(
            {pname != trace.processes.end()
                 ? pname->second
                 : std::to_string(key.first),
             tname != trace.tracks.end() ? tname->second
                                         : std::to_string(key.second),
             std::to_string(a.spans), fmtUs(a.busyUs), fmtUs(window),
             harness::fmtPct(window > 0.0 ? a.busyUs / window * 100.0
                                          : 100.0),
             fmtUs(a.idleUs), fmtUs(a.largestGapUs)});
    }
    table.print(std::cout);
}

void
printTopK(const Trace &trace, std::size_t top_k)
{
    auto stats = statsByName(trace);
    std::vector<std::pair<std::string, NameStats>> by_time(
        stats.begin(), stats.end());
    auto print = [&](const char *title, auto better) {
        std::sort(by_time.begin(), by_time.end(),
                  [&](const auto &a, const auto &b) {
                      if (better(a.second) != better(b.second))
                          return better(a.second) > better(b.second);
                      return a.first < b.first; // deterministic ties
                  });
        std::cout << "\n" << title << "\n";
        harness::TablePrinter table(
            {"op", "count", "total time", "total energy"});
        std::size_t rows = std::min(top_k, by_time.size());
        for (std::size_t i = 0; i < rows; ++i) {
            const auto &[name, s] = by_time[i];
            table.addRow({name, std::to_string(s.count),
                          fmtUs(s.durUs),
                          harness::fmt(s.energyJ, 6) + " J"});
        }
        table.print(std::cout);
    };
    print("top ops by time",
          [](const NameStats &s) { return s.durUs; });
    print("top ops by energy",
          [](const NameStats &s) { return s.energyJ; });
}

void
printInstants(const Trace &trace)
{
    if (trace.instants.empty())
        return;
    std::cout << "\ninstant events\n";
    harness::TablePrinter table({"event", "count"});
    for (const auto &[name, count] : trace.instants)
        table.addRow({name, std::to_string(count)});
    table.print(std::cout);
}

int
summarize(const std::string &path, std::size_t top_k)
{
    Trace trace = loadTrace(path);
    std::cout << path << ": " << trace.spans.size() << " spans, "
              << trace.processes.size() << " scopes, "
              << trace.tracks.size() << " scope-track rows\n\n";
    printUtilization(trace);
    printTopK(trace, top_k);
    printInstants(trace);
    return 0;
}

int
diff(const std::string &path_a, const std::string &path_b)
{
    Trace a = loadTrace(path_a);
    Trace b = loadTrace(path_b);
    auto stats_a = statsByName(a);
    auto stats_b = statsByName(b);

    std::vector<std::string> names;
    for (const auto &[name, s] : stats_a)
        names.push_back(name);
    for (const auto &[name, s] : stats_b) {
        if (!stats_a.count(name))
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());

    harness::TablePrinter table({"op", "count A", "count B", "time A",
                                 "time B", "energy A", "energy B"});
    std::size_t differing = 0;
    for (const std::string &name : names) {
        NameStats sa = stats_a.count(name) ? stats_a[name]
                                           : NameStats{};
        NameStats sb = stats_b.count(name) ? stats_b[name]
                                           : NameStats{};
        if (sa.count == sb.count && sa.durUs == sb.durUs
            && sa.energyJ == sb.energyJ)
            continue;
        ++differing;
        table.addRow({name, std::to_string(sa.count),
                      std::to_string(sb.count), fmtUs(sa.durUs),
                      fmtUs(sb.durUs),
                      harness::fmt(sa.energyJ, 6) + " J",
                      harness::fmt(sb.energyJ, 6) + " J"});
    }
    if (differing == 0 && a.instants == b.instants) {
        std::cout << "traces equivalent: " << a.spans.size()
                  << " spans, " << names.size()
                  << " distinct ops, same aggregate time and energy\n";
        return 0;
    }
    if (differing > 0) {
        std::cout << differing << " of " << names.size()
                  << " ops differ:\n";
        table.print(std::cout);
    }
    for (const auto &[name, count] : b.instants) {
        std::uint64_t count_a =
            a.instants.count(name) ? a.instants.at(name) : 0;
        if (count_a != count)
            std::cout << "instant '" << name << "': " << count_a
                      << " vs " << count << "\n";
    }
    for (const auto &[name, count] : a.instants) {
        if (!b.instants.count(name))
            std::cout << "instant '" << name << "': " << count
                      << " vs 0\n";
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty() && (args[0] == "--help" || args[0] == "-h")) {
        std::cout << kUsage << '\n';
        return 0;
    }
    fatal_if(args.empty(), "missing command\n", kUsage);

    if (args[0] == "summarize") {
        fatal_if(args.size() < 2, "summarize needs a trace file\n",
                 kUsage);
        std::size_t top_k = 10;
        for (std::size_t i = 2; i < args.size(); ++i) {
            if (args[i] == "--top") {
                fatal_if(i + 1 >= args.size(), "--top needs a value\n",
                         kUsage);
                std::optional<std::uint64_t> k =
                    harness::parseUnsigned(args[++i]);
                if (!k || *k == 0)
                    fatal("--top expects a positive integer, got '",
                          args[i], "'\n", kUsage);
                top_k = static_cast<std::size_t>(*k);
            } else {
                fatal("unknown argument '", args[i], "'\n", kUsage);
            }
        }
        return summarize(args[1], top_k);
    }
    if (args[0] == "diff") {
        fatal_if(args.size() != 3, "diff needs exactly two trace "
                                   "files\n",
                 kUsage);
        return diff(args[1], args[2]);
    }
    fatal("unknown command '", args[0], "'\n", kUsage);
}
