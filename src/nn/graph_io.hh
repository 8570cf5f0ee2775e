/**
 * @file
 * Versioned JSON serialization for nn::Graph: the on-disk workload
 * format behind `hpim_cli --graph`, the sweep engine's `--graph`
 * flag, and the hpim_serve `graph` payload.
 *
 * A graph document is one JSON object:
 *
 *   {"schema_version":1,
 *    "name":"my-model",
 *    "ops":[{"type":"MatMul","label":"fc1/MatMul",
 *            "muls":1048576,"adds":1048576,"specials":0,
 *            "bytes_read":16384,"bytes_written":4096,
 *            "units_per_lane":64,"lanes":1024,
 *            "inputs":[0,2]},
 *           ...]}
 *
 * Op "type" strings are the profiler names from nn/op_type.cc
 * (opName()); "inputs" are indices of earlier ops in the array, so a
 * valid document is topologically ordered by construction -- exactly
 * the invariant Graph::add enforces.
 *
 * The loader is strict in the report_io tradition: every field must
 * appear exactly once, unknown fields, bad types, malformed,
 * non-finite or negative costs, forward/self references, unknown op
 * names and nesting past json::maxDepth are all rejected with a typed
 * GraphParseError carrying the 1-based source line and the offending
 * field -- never an abort, because the input is a user file, not
 * program state. Field paths are built only for an error.
 *
 * It reads the document in one pass from a json::Reader, with no node
 * array, and adds each op to the graph as soon as it is checked. The
 * op's label and inputs wait in two buffers the reader reuses, and the
 * graph's arrays are reserved from the document's op count, so a load
 * allocates a few times per document, not per op. A
 * saved document lists each op's fields in the order saveGraph writes
 * them, so each key is first compared in place with the one expected
 * there and read in full only when it differs; integer tokens are
 * converted as they are scanned. Any order and spelling of the keys
 * loads the same graph. When a document has several errors, a syntax
 * error anywhere wins; otherwise the root's unknown or duplicate
 * fields, then its fields in slot order (schema_version, name, ops),
 * then the ops by index, each op's unknown or duplicate fields before
 * its fields in slot order.
 *
 * Writing goes through the shared json::Writer (compact, %.17g
 * lossless doubles), so a load -> save cycle of a saved document is
 * byte-identical, and reconstruction replays Graph::add in document
 * order, so the loaded graph's signature() equals the saved graph's --
 * sim::MemoCache and the sweep journal key on it unchanged.
 */

#ifndef HPIM_NN_GRAPH_IO_HH
#define HPIM_NN_GRAPH_IO_HH

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "nn/graph.hh"

namespace hpim::nn {

/** Version of the serialized graph schema. */
constexpr int graphSchemaVersion = 1;

/** A graph document that cannot be parsed or validated. */
struct GraphParseError : std::runtime_error
{
    GraphParseError(const std::string &message,
                    std::size_t line_number = 0,
                    std::string field_name = {})
        : std::runtime_error(
              "graph parse error: " + message
              + (field_name.empty() ? ""
                                    : " (field '" + field_name + "')")
              + (line_number ? " at line " + std::to_string(line_number)
                             : "")),
          line(line_number), field(std::move(field_name))
    {
    }

    /** @return @p err with " in '<path>'" appended, keeping the
     *  structured line/field untouched (loadGraphFile context). */
    static GraphParseError
    inFile(const GraphParseError &err, const std::string &path)
    {
        return GraphParseError(raw_t{},
                               std::string(err.what()) + " in '" + path
                                   + "'",
                               err.line, err.field);
    }

    std::size_t line;  ///< 1-based line, 0 when unknown
    std::string field; ///< offending field path, may be empty

  private:
    struct raw_t
    {
    };

    GraphParseError(raw_t, const std::string &what,
                    std::size_t line_number, std::string field_name)
        : std::runtime_error(what), line(line_number),
          field(std::move(field_name))
    {
    }
};

/** Write @p graph as one compact JSON document (no trailing newline). */
void saveGraph(std::ostream &os, const Graph &graph);

/** @return @p graph as a compact JSON document string. */
std::string graphToJson(const Graph &graph);

/** Parse and validate one graph document. Throws GraphParseError. */
Graph loadGraph(const std::string &text);

/** @return the bytes of @p path. Throws GraphParseError when the file
 *  cannot be opened or read (a directory, say). */
std::string readGraphFile(const std::string &path);

/**
 * Read @p path and load the graph it holds. Throws GraphParseError
 * (with the file's name in the message) for unreadable files as well
 * as malformed documents.
 */
Graph loadGraphFile(const std::string &path);

/** Write @p graph to @p path (trailing newline included). Throws
 *  GraphParseError when the file cannot be written. */
void saveGraphFile(const std::string &path, const Graph &graph);

} // namespace hpim::nn

#endif // HPIM_NN_GRAPH_IO_HH
