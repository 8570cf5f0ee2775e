#include "rt/hetero_runtime.hh"

#include <algorithm>
#include <memory>

#include "sim/deadline.hh"
#include "sim/hash.hh"
#include "sim/memo_cache.hh"

namespace hpim::rt {

using hpim::nn::Graph;

namespace {

/** The memoizable part of prepare(): profile + candidate selection. */
struct Prepared
{
    std::shared_ptr<const ProfileReport> profile;
    std::shared_ptr<const OffloadSelection> selection;
};

/** Exact digest of every CpuParams field the profiler consumes. */
std::uint64_t
cpuKey(const hpim::cpu::CpuParams &cpu)
{
    using hpim::sim::hashDouble;
    using hpim::sim::hashU64;
    std::uint64_t h = hashDouble(cpu.frequencyHz);
    h = hashU64(static_cast<std::uint64_t>(cpu.cores), h);
    h = hashDouble(cpu.flopsPerSec, h);
    h = hashDouble(cpu.specialsPerSec, h);
    h = hashDouble(cpu.memBandwidth, h);
    h = hashDouble(cpu.opOverheadSec, h);
    h = hashDouble(cpu.dynamicPowerW, h);
    h = hashDouble(cpu.idlePowerW, h);
    return h;
}

} // namespace

/**
 * One memo tier, "rt.prepared": (graph, CPU, coverage) -> profile +
 * selection, exact-match on all three (docs/PERFORMANCE.md). A miss
 * profiles the whole graph directly: a few divisions per op cost
 * less than looking each op up, so nothing finer is memoized.
 */
TrainingResult
HeteroRuntime::prepare(const Graph &graph) const
{
    using hpim::sim::hashDouble;
    using hpim::sim::hashU64;

    TrainingResult result;
    if (!_config.dynamicScheduling)
        return result;

    auto &cache = hpim::sim::MemoCache::instance();
    std::uint64_t key = hashDouble(
        _config.offloadCoveragePct,
        hashU64(cpuKey(_config.cpu), hashU64(graph.signature())));
    if (auto hit = cache.find<Prepared>(key, "rt.prepared")) {
        result.profile = hit->profile;
        result.selection = hit->selection;
        return result;
    }

    // Memo hits above are free; only an actual profile pass is worth
    // a deadline phase boundary (docs/SERVING.md).
    hpim::sim::checkDeadline("profile");
    Profiler profiler{hpim::cpu::CpuModel(_config.cpu)};
    result.profile =
        std::make_shared<const ProfileReport>(profiler.profile(graph));
    result.selection = std::make_shared<const OffloadSelection>(
        selectOffloadCandidates(*result.profile,
                                _config.offloadCoveragePct));
    cache.put<Prepared>(key, "rt.prepared",
                        std::make_shared<const Prepared>(
                            Prepared{result.profile, result.selection}));
    return result;
}

TrainingResult
HeteroRuntime::train(const Graph &graph, std::uint32_t steps) const
{
    TrainingResult result = prepare(graph);
    hpim::sim::checkDeadline("execute");
    Executor executor(_config, result.selection.get());
    result.execution =
        executor.run(graph, steps == 0 ? _config.steps : steps);
    return result;
}

std::uint32_t
HeteroRuntime::guestSteps(const Graph &primary, const Graph &guest,
                          std::uint32_t steps) const
{
    std::uint32_t n = steps == 0 ? _config.steps : steps;
    // Balance using quick one-step simulations: the primary at its
    // PIM-accelerated speed, the guest at its CPU/progr-PIM speed.
    TrainingResult primary_probe = prepare(primary);
    Executor first(_config, primary_probe.selection.get());
    double primary_est = first.run(primary, 1).stepSec;

    Executor second(_config, nullptr);
    WorkloadSpec guest_probe;
    guest_probe.graph = &guest;
    guest_probe.steps = 1;
    guest_probe.pimManaged = false;
    double guest_est = second.run({guest_probe}).stepSec;

    if (guest_est <= 0.0)
        return n;
    double ratio = primary_est / guest_est;
    // Bound total simulated guest ops to keep the simulation cheap.
    double op_cap = 250000.0
                    / (static_cast<double>(guest.size())
                       * static_cast<double>(n));
    ratio = std::min(std::max(ratio, 1.0), std::max(op_cap, 1.0));
    return static_cast<std::uint32_t>(ratio * n + 0.5);
}

TrainingResult
HeteroRuntime::corun(const Graph &primary, const Graph &guest,
                     std::uint32_t steps) const
{
    TrainingResult result = prepare(primary);
    Executor executor(_config, result.selection.get());
    std::uint32_t n = steps == 0 ? _config.steps : steps;

    WorkloadSpec primary_spec;
    primary_spec.graph = &primary;
    primary_spec.steps = n;
    primary_spec.pimManaged = true;

    WorkloadSpec guest_spec;
    guest_spec.graph = &guest;
    guest_spec.steps = guestSteps(primary, guest, steps);
    guest_spec.pimManaged = false;

    result.execution = executor.run({primary_spec, guest_spec});
    return result;
}

TrainingResult
HeteroRuntime::corunSequential(const Graph &primary, const Graph &guest,
                               std::uint32_t steps) const
{
    std::uint32_t n = steps == 0 ? _config.steps : steps;

    TrainingResult result = prepare(primary);
    Executor first(_config, result.selection.get());
    ExecutionReport a = first.run(primary, n);

    // The guest runs after the primary finishes, still restricted to
    // the CPU and programmable PIM (it is not a PIM-managed model).
    Executor second(_config, nullptr);
    WorkloadSpec guest_spec;
    guest_spec.graph = &guest;
    guest_spec.steps = guestSteps(primary, guest, steps);
    guest_spec.pimManaged = false;
    ExecutionReport b = second.run({guest_spec});

    result.execution = a;
    result.execution.workloadName =
        primary.name() + "+" + guest.name() + " (sequential)";
    result.execution.makespanSec += b.makespanSec;
    result.execution.stepSec += b.stepSec;
    result.execution.opSec += b.opSec;
    result.execution.dataMovementSec += b.dataMovementSec;
    result.execution.syncSec += b.syncSec;
    result.execution.cpuBusySec += b.cpuBusySec;
    result.execution.progrBusySec += b.progrBusySec;
    result.execution.fixedUnitSeconds += b.fixedUnitSeconds;
    result.execution.hostLaunches += b.hostLaunches;
    result.execution.recursiveLaunches += b.recursiveLaunches;
    result.execution.linkBytes += b.linkBytes;
    result.execution.internalBytes += b.internalBytes;
    result.execution.totalEnergyJ += b.totalEnergyJ;
    result.execution.energyPerStepJ += b.energyPerStepJ;
    result.execution.edp =
        result.execution.energyPerStepJ * result.execution.stepSec;
    if (result.execution.makespanSec > 0.0) {
        result.execution.averagePowerW =
            result.execution.totalEnergyJ
            / result.execution.makespanSec;
        result.execution.fixedUtilization =
            result.execution.fixedUnitSeconds
            / (_config.fixed.totalUnits
               * result.execution.makespanSec);
    }
    return result;
}

} // namespace hpim::rt
