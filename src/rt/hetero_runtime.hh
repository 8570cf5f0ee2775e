/**
 * @file
 * Top-level runtime facade: profile -> select -> schedule -> execute.
 *
 * This is the piece a machine-learning framework integrates with
 * (the paper adds ~2000 lines to TensorFlow's runtime for the same
 * role): give it a training-step graph and a system configuration and
 * it runs the whole pipeline, including the mixed-workload co-run
 * mode of SectionVI-F.
 */

#ifndef HPIM_RT_HETERO_RUNTIME_HH
#define HPIM_RT_HETERO_RUNTIME_HH

#include <memory>

#include "nn/graph.hh"
#include "rt/executor.hh"
#include "rt/offload_selector.hh"
#include "rt/profiler.hh"
#include "rt/system_config.hh"

namespace hpim::rt {

/**
 * Everything produced by a training run.
 *
 * While sim::MemoCache is enabled, the profile and selection are the
 * objects it holds for this (graph, CPU, coverage): every run that
 * hits it shares them, so both are read-only.
 */
struct TrainingResult
{
    /** Step-1 profile; null when dynamic scheduling is off. */
    std::shared_ptr<const ProfileReport> profile;
    /** Offload candidates; null when dynamic scheduling is off. */
    std::shared_ptr<const OffloadSelection> selection;
    ExecutionReport execution;    ///< the scheduled run
};

/** The heterogeneous-PIM runtime. */
class HeteroRuntime
{
  public:
    explicit HeteroRuntime(const SystemConfig &config)
        : _config(config)
    {}

    /**
     * Train @p graph for the configured number of steps.
     * When the config enables dynamic scheduling, step 1 is profiled
     * on the CPU and drives candidate selection.
     */
    TrainingResult train(const hpim::nn::Graph &graph,
                         std::uint32_t steps = 0) const;

    /**
     * Co-run a PIM-managed model with a guest model (SectionVI-F).
     * The guest executes on the CPU / programmable PIM when idle.
     * Guest steps are auto-balanced: since LSTM/Word2vec steps are
     * much shorter than a CNN step, the guest runs as many steps as
     * fit the primary's wall time (capped at 50x).
     */
    TrainingResult corun(const hpim::nn::Graph &primary,
                         const hpim::nn::Graph &guest,
                         std::uint32_t steps = 0) const;

    /** Guest steps chosen by the balancing rule above. */
    std::uint32_t guestSteps(const hpim::nn::Graph &primary,
                             const hpim::nn::Graph &guest,
                             std::uint32_t steps) const;

    /**
     * Sequential-execution baseline for the co-run study: the primary
     * trains to completion, then the guest. Reported step time is the
     * sum of the two per-step times.
     */
    TrainingResult corunSequential(const hpim::nn::Graph &primary,
                                   const hpim::nn::Graph &guest,
                                   std::uint32_t steps = 0) const;

    const SystemConfig &config() const { return _config; }

  private:
    TrainingResult prepare(const hpim::nn::Graph &graph) const;

    SystemConfig _config;
};

} // namespace hpim::rt

#endif // HPIM_RT_HETERO_RUNTIME_HH
