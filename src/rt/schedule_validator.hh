/**
 * @file
 * Schedule validation: checks a recorded ScheduleTrace against the
 * graphs it executed for the invariants any legal schedule must obey:
 *
 *  1. dependence safety -- no op starts before all its producers (in
 *     the same workload and step) have finished;
 *  2. serial-device capacity -- at most one interval at a time on the
 *     CPU; at most `progrPimCount` on the programmable PIM(s). Only
 *     ops placed on the device itself count: a host-driven op's CPU
 *     time and a recursive op's control part are not checked, because
 *     their intervals also cover the joined fixed part, which ends
 *     after the device is freed;
 *  3. step-window discipline -- ops of step s+k never start while
 *     step s is incomplete for k >= the pipeline window;
 *  4. completeness -- exactly one interval per (workload, step, op).
 *
 * Used by property tests to verify the executor across models and
 * configurations, and available to users as a debugging aid.
 */

#ifndef HPIM_RT_SCHEDULE_VALIDATOR_HH
#define HPIM_RT_SCHEDULE_VALIDATOR_HH

#include <string>
#include <vector>

#include "nn/graph.hh"
#include "rt/schedule_trace.hh"
#include "rt/system_config.hh"

namespace hpim::rt {

/** One detected violation. */
struct ScheduleViolation
{
    std::string what;
};

/** Validation outcome. */
struct ValidationResult
{
    std::vector<ScheduleViolation> violations;
    bool ok() const { return violations.empty(); }
};

/**
 * Validate @p trace against the executed workloads.
 *
 * @param trace the recorded schedule (all intervals closed)
 * @param graphs one graph per workload, indexed by TraceEntry::workload
 * @param steps steps each workload ran
 * @param config the system configuration used
 */
ValidationResult
validateSchedule(const ScheduleTrace &trace,
                 const std::vector<const hpim::nn::Graph *> &graphs,
                 const std::vector<std::uint32_t> &steps,
                 const SystemConfig &config);

} // namespace hpim::rt

#endif // HPIM_RT_SCHEDULE_VALIDATOR_HH
