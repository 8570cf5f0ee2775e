/**
 * @file
 * ExecutionReport serialization: CSV rows (for plotting scripts) and
 * a JSON object (for dashboards / regression tracking / the sweep
 * journal), plus the strict parser that reads the JSON form back.
 *
 * The formats are versioned: writeCsv leads with a
 * `#hpim-report-csv vN` line (reportCsvVersion) and writeJson emits a
 * `schema_version` field (reportSchemaVersion), which the JSON reader
 * checks instead of guessing. Doubles are written with max_digits10
 * precision, so a JSON write -> read -> write cycle is
 * byte-identical -- the property the crash-safe sweep journal
 * (harness/journal) is built on. Parse failures carry the offending
 * line and field in a typed ParseError rather than aborting, so a
 * caller holding a half-written file (the crash case) can drop the
 * bad tail and keep the good prefix.
 */

#ifndef HPIM_HARNESS_REPORT_IO_HH
#define HPIM_HARNESS_REPORT_IO_HH

#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "rt/execution_report.hh"

namespace hpim::harness {

namespace json {
class Value;
}

/**
 * Version of the serialized JSON report. v2 added the "metrics"
 * array (obs::MetricsRegistry snapshot).
 */
constexpr int reportSchemaVersion = 2;

/**
 * Version of the CSV layout, tracked separately: v2 of the JSON
 * schema left the CSV columns untouched (metrics are JSON-only), so
 * CSV documents remain v1.
 */
constexpr int reportCsvVersion = 1;

/** A report document that cannot be parsed. */
struct ParseError : std::runtime_error
{
    ParseError(const std::string &message, std::size_t line_number = 0,
               std::string field_name = {})
        : std::runtime_error(
              "report parse error: " + message
              + (field_name.empty() ? "" : " (field '" + field_name + "')")
              + (line_number ? " at line " + std::to_string(line_number)
                             : "")),
          line(line_number), field(std::move(field_name))
    {
    }

    std::size_t line;  ///< 1-based line, 0 when unknown
    std::string field; ///< offending field/column, may be empty
};

/** Write the CSV header matching writeCsvRow(). */
void writeCsvHeader(std::ostream &os);

/** Write one report as a CSV row. The config and workload names are
 *  quoted when they hold a comma, a quote, CR or LF (RFC 4180). */
void writeCsvRow(std::ostream &os,
                 const hpim::rt::ExecutionReport &report);

/** Write a batch of reports as one versioned CSV document. Throws
 *  harness::IoError if the stream goes bad (or by injection via the
 *  `report.write` fail point). */
void writeCsv(std::ostream &os,
              const std::vector<hpim::rt::ExecutionReport> &reports);

/** Write one report as a JSON object (all fields, lossless). Throws
 *  harness::IoError like writeCsv. */
void writeJson(std::ostream &os,
               const hpim::rt::ExecutionReport &report);

/** @return writeJson output as a string. */
std::string jsonString(const hpim::rt::ExecutionReport &report);

/**
 * Parse one report from its JSON form. Strict: every known field
 * must be present exactly once, unknown fields and version
 * mismatches throw ParseError naming the line and field.
 */
hpim::rt::ExecutionReport readJson(const std::string &text);

/** Parse an already-parsed JSON object (journal records reuse this). */
hpim::rt::ExecutionReport reportFromJson(const json::Value &root);

} // namespace hpim::harness

#endif // HPIM_HARNESS_REPORT_IO_HH
