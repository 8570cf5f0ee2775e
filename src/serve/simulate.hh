/**
 * @file
 * The one place a SimulateSpec becomes an ExecutionReport.
 *
 * Both the hpim_serve daemon and hpim_cli's one-shot mode run
 * simulations through this function, so a served response is
 * byte-identical to a local run by construction -- there is no
 * second code path that could drift (docs/SERVING.md,
 * "Byte-identity").
 */

#ifndef HPIM_SERVE_SIMULATE_HH
#define HPIM_SERVE_SIMULATE_HH

#include "rt/execution_report.hh"
#include "serve/protocol.hh"

namespace hpim::serve {

/**
 * Run the simulation @p spec describes and return its report.
 *
 * @p spec must be valid (what parseRequest produces); a spec that
 * checkSimSpec() refuses panics, because it indicates a caller that
 * skipped validation, not a user error. A `graph` document is parsed
 * here, the only parse a served document gets, and one that does not
 * load throws nn::GraphParseError. Honors the calling thread's
 * sim::DeadlineScope: the run throws sim::DeadlineExceeded at the
 * next phase boundary once the budget is spent.
 */
hpim::rt::ExecutionReport runSimulate(const SimulateSpec &spec);

} // namespace hpim::serve

#endif // HPIM_SERVE_SIMULATE_HH
