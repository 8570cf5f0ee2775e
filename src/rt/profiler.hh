/**
 * @file
 * Step-1 profiler (paper SectionIII-C, step 1).
 *
 * Executes every operation of one training step on the host CPU, one
 * by one (inter-op parallelism disabled for accuracy, SectionII-A),
 * and sums execution time and main-memory access counts per op type:
 * the two indices the offload selector ranks types by, and the rows
 * of paper Table I.
 */

#ifndef HPIM_RT_PROFILER_HH
#define HPIM_RT_PROFILER_HH

#include <cstdint>
#include <vector>

#include "cpu/cpu_model.hh"
#include "nn/graph.hh"

namespace hpim::rt {

/** Per-op-type aggregation (paper Table I rows). */
struct TypeProfile
{
    hpim::nn::OpType type = hpim::nn::OpType::MatMul;
    double timeSec = 0.0;
    double timePct = 0.0;
    double accesses = 0.0;
    double accessPct = 0.0;
    std::uint32_t invocations = 0;
};

/** Complete profiling result for one step. */
struct ProfileReport
{
    /** One row per op type present, in OpType order. */
    std::vector<TypeProfile> byType;
    double totalTimeSec = 0.0;
    double totalAccesses = 0.0;

    /** Types sorted by descending time. */
    std::vector<TypeProfile> topByTime() const;
    /** Types sorted by descending main-memory accesses. */
    std::vector<TypeProfile> topByAccesses() const;
};

/** The profiler. */
class Profiler
{
  public:
    explicit Profiler(const hpim::cpu::CpuModel &cpu) : _cpu(cpu) {}

    /**
     * Profile one training step of @p graph on the CPU: one pass in
     * graph order adds each op's roofline time and main-memory
     * accesses into its type's row and into the totals. The pass
     * costs a few divisions per op, less than a memo lookup would
     * (docs/PERFORMANCE.md), so nothing per op is memoized;
     * HeteroRuntime memoizes whole profiles instead.
     */
    ProfileReport profile(const hpim::nn::Graph &graph) const;

    /** profile(); @p cpu_key is unused (perfbench calls this). */
    ProfileReport profileDelta(const hpim::nn::Graph &graph,
                               std::uint64_t cpu_key) const;

  private:
    hpim::cpu::CpuModel _cpu;
};

} // namespace hpim::rt

#endif // HPIM_RT_PROFILER_HH
