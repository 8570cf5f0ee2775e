/**
 * @file
 * Pinned schedule digests: the executor's dispatch loop must keep
 * producing, byte for byte, the schedules and reports recorded here.
 * Each digest is FNV-1a over harness::jsonString(report) plus every
 * ScheduleTrace entry (workload, step, op, placement, start, end). A
 * changed constant means a changed schedule -- an op was placed
 * elsewhere or in a different order -- never a harmless refactor.
 *
 * Covered: the five CNN models on every simulated paper system plus
 * the RC/OP ablations; Hetero under bank kills, transient faults and
 * kernel stalls; one graph co-run as three workloads, where every
 * (step, op) ties and only the order in which equal-priority ops
 * became ready breaks the tie; and the three ScheduleFuzz corpora.
 *
 * Also pins exact work counts -- placement decisions evaluated, events
 * popped, ops completed, retries and report bytes -- so a change that
 * makes the simulator do more work fails here on every machine.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/presets.hh"
#include "harness/report_io.hh"
#include "nn/models.hh"
#include "obs/metrics.hh"
#include "rt/executor.hh"
#include "rt/offload_selector.hh"
#include "rt/profiler.hh"
#include "schedule_fuzz_corpus.hh"
#include "serve/simulate.hh"
#include "sim/hash.hh"

using namespace hpim;
using baseline::makeConfig;
using baseline::makeHetero;
using baseline::SystemKind;
using nn::ModelId;

namespace {

constexpr std::uint32_t kSteps = 4;

std::uint64_t
digest(const rt::ExecutionReport &report, const rt::ScheduleTrace &trace)
{
    std::uint64_t h = sim::hashString(harness::jsonString(report));
    for (const rt::TraceEntry &entry : trace.entries()) {
        h = sim::hashU64(entry.workload, h);
        h = sim::hashU64(entry.step, h);
        h = sim::hashU64(entry.opId, h);
        h = sim::hashU64(static_cast<std::uint64_t>(entry.placement), h);
        h = sim::hashDouble(entry.startSec, h);
        h = sim::hashDouble(entry.endSec, h);
    }
    return h;
}

/**
 * HeteroRuntime::train's path with a schedule trace attached: under
 * dynamic scheduling the candidates come from a CPU profile of the
 * graph, otherwise every op is eligible.
 */
std::uint64_t
runDigest(const rt::SystemConfig &config,
          const std::vector<rt::WorkloadSpec> &workloads)
{
    rt::OffloadSelection selection;
    if (config.dynamicScheduling) {
        rt::Profiler profiler{cpu::CpuModel(config.cpu)};
        selection = rt::selectOffloadCandidates(
            profiler.profile(*workloads[0].graph),
            config.offloadCoveragePct);
    }
    rt::Executor executor(config, config.dynamicScheduling ? &selection
                                                           : nullptr);
    rt::ScheduleTrace trace;
    executor.attachTrace(&trace);
    rt::ExecutionReport report = executor.run(workloads);
    return digest(report, trace);
}

std::uint64_t
runDigest(const rt::SystemConfig &config, const nn::Graph &graph,
          std::uint32_t steps)
{
    rt::WorkloadSpec spec;
    spec.graph = &graph;
    spec.steps = steps;
    return runDigest(config, std::vector<rt::WorkloadSpec>{spec});
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << "0x" << std::hex << std::setw(16) << std::setfill('0')
        << value << "ULL";
    return out.str();
}

rt::SystemConfig
systemConfig(const std::string &name)
{
    if (name == "cpu")
        return makeConfig(SystemKind::CpuOnly);
    if (name == "progr")
        return makeConfig(SystemKind::ProgrPimOnly);
    if (name == "fixed")
        return makeConfig(SystemKind::FixedPimOnly);
    if (name == "hetero")
        return makeConfig(SystemKind::HeteroPim);
    if (name == "hetero-rc-off")
        return makeHetero(true, false, true);
    return makeHetero(true, true, false); // "hetero-op-off"
}

/** Hetero with one fault knob armed, at fault seed @p seed. */
rt::SystemConfig
faultConfig(const std::string &name, std::uint64_t seed)
{
    rt::SystemConfig config = makeConfig(SystemKind::HeteroPim);
    config.faults.enabled = true;
    config.faults.seed = seed;
    if (name == "kill-4")
        config.faults.killBanks = 4;
    else if (name == "kill-16")
        config.faults.killBanks = 16;
    else if (name == "transient-1e-2")
        config.faults.transientRatePerOp = 1e-2;
    else // "stall-1e-3"
        config.faults.stallRatePerOp = 1e-3;
    return config;
}

struct Pinned
{
    ModelId model;
    const char *variant;
    std::uint64_t digest;
};

} // namespace

TEST(DispatchIdentity, CnnModelsOnEverySystem)
{
    const Pinned pinned[] = {
        {ModelId::Vgg19, "cpu", 0x75358b6b5c3b9547ULL},
        {ModelId::Vgg19, "progr", 0xedcaa52be7f1e6b7ULL},
        {ModelId::Vgg19, "fixed", 0xd525b22f41d28f73ULL},
        {ModelId::Vgg19, "hetero", 0xc7e317f128b765eaULL},
        {ModelId::Vgg19, "hetero-rc-off", 0x2b4c784082165d7bULL},
        {ModelId::Vgg19, "hetero-op-off", 0x8b0dec593e8ff66dULL},
        {ModelId::AlexNet, "cpu", 0x2356003653fe48beULL},
        {ModelId::AlexNet, "progr", 0xc5b44d0522b3ca7aULL},
        {ModelId::AlexNet, "fixed", 0xf4a9f220e7b1a00dULL},
        {ModelId::AlexNet, "hetero", 0x49280c3aacfacc56ULL},
        {ModelId::AlexNet, "hetero-rc-off", 0x79e0f6867017f0b9ULL},
        {ModelId::AlexNet, "hetero-op-off", 0xfbd054cf9c371498ULL},
        {ModelId::Dcgan, "cpu", 0x36c4ac0749684ea3ULL},
        {ModelId::Dcgan, "progr", 0x35a1bf0b76da91c1ULL},
        {ModelId::Dcgan, "fixed", 0x612f454e9b09251eULL},
        {ModelId::Dcgan, "hetero", 0x96ac96f86cbc035bULL},
        {ModelId::Dcgan, "hetero-rc-off", 0x0bfb81fb8b452214ULL},
        {ModelId::Dcgan, "hetero-op-off", 0x2042f5a0a9bd4aa3ULL},
        {ModelId::ResNet50, "cpu", 0x98003dafbbb278aaULL},
        {ModelId::ResNet50, "progr", 0x6bdc42ee9ce37bc2ULL},
        {ModelId::ResNet50, "fixed", 0xde8225d5baa9e42cULL},
        {ModelId::ResNet50, "hetero", 0xc6b4c3f361f5088dULL},
        {ModelId::ResNet50, "hetero-rc-off", 0x2d72afbb44e3cf42ULL},
        {ModelId::ResNet50, "hetero-op-off", 0xf7d293331e180be1ULL},
        {ModelId::InceptionV3, "cpu", 0x27b28889f9c66667ULL},
        {ModelId::InceptionV3, "progr", 0xa2f49acdfbbc087cULL},
        {ModelId::InceptionV3, "fixed", 0x1716ac963fb8d06dULL},
        {ModelId::InceptionV3, "hetero", 0x5295bdcad719de9bULL},
        {ModelId::InceptionV3, "hetero-rc-off", 0x367a4c64464faba0ULL},
        {ModelId::InceptionV3, "hetero-op-off", 0xcde973bddfabed4cULL},
    };
    for (const Pinned &pin : pinned) {
        nn::Graph graph = nn::buildModel(pin.model);
        std::uint64_t h =
            runDigest(systemConfig(pin.variant), graph, kSteps);
        EXPECT_EQ(hex(h), hex(pin.digest))
            << nn::modelName(pin.model) << " on " << pin.variant;
    }
}

TEST(DispatchIdentity, HeteroUnderFaults)
{
    // Two fault seeds per setting, folded into one digest.
    const Pinned pinned[] = {
        {ModelId::Vgg19, "kill-4", 0xa7cbb5bf7922b8a7ULL},
        {ModelId::Vgg19, "kill-16", 0x8374f4e4b2c605cfULL},
        {ModelId::Vgg19, "transient-1e-2", 0x74647e7c9b7bd4f2ULL},
        {ModelId::Vgg19, "stall-1e-3", 0x65aab5398188ded5ULL},
        {ModelId::AlexNet, "kill-4", 0x309d613706652ad0ULL},
        {ModelId::AlexNet, "kill-16", 0x57ccf062a1967366ULL},
        {ModelId::AlexNet, "transient-1e-2", 0x9b662da5a2fb2884ULL},
        {ModelId::AlexNet, "stall-1e-3", 0xa66f2adea0e003f1ULL},
        {ModelId::Dcgan, "kill-4", 0xa07a6b3b8f543899ULL},
        {ModelId::Dcgan, "kill-16", 0x9591cfae11590ac1ULL},
        {ModelId::Dcgan, "transient-1e-2", 0xf1e6de9dee8fca20ULL},
        {ModelId::Dcgan, "stall-1e-3", 0xb507809d0b036655ULL},
        {ModelId::ResNet50, "kill-4", 0x5462bb642bd217b8ULL},
        {ModelId::ResNet50, "kill-16", 0x1391e5bcde360d5fULL},
        {ModelId::ResNet50, "transient-1e-2", 0xcca74afdbb109171ULL},
        {ModelId::ResNet50, "stall-1e-3", 0x181d50947f4e5f7dULL},
        {ModelId::InceptionV3, "kill-4", 0xf02b5a358ad22512ULL},
        {ModelId::InceptionV3, "kill-16", 0xdc7689211b91f6caULL},
        {ModelId::InceptionV3, "transient-1e-2",
         0xe4972f238af4bc98ULL},
        {ModelId::InceptionV3, "stall-1e-3", 0x9828e1dcbf3782a1ULL},
    };
    for (const Pinned &pin : pinned) {
        nn::Graph graph = nn::buildModel(pin.model);
        std::uint64_t h = sim::fnvOffsetBasis;
        for (std::uint64_t seed : {1u, 2u}) {
            h = sim::hashU64(
                runDigest(faultConfig(pin.variant, seed), graph, kSteps),
                h);
        }
        EXPECT_EQ(hex(h), hex(pin.digest))
            << nn::modelName(pin.model) << " under " << pin.variant;
    }
}

TEST(DispatchIdentity, TiedCoRunKeepsReadyOrder)
{
    // One graph as three workloads -- two managed, one guest -- with
    // equal step counts: the managed pair ties on every (step, op),
    // and the one that became ready first goes first. ResNet-50's
    // wide blocks let the second workload's copy of an op finish
    // first now and then, so ready order and workload order differ
    // (AlexNet's chain never does).
    nn::Graph graph = nn::buildModel(ModelId::ResNet50);
    std::vector<rt::WorkloadSpec> workloads(3);
    for (rt::WorkloadSpec &spec : workloads) {
        spec.graph = &graph;
        spec.steps = 2;
    }
    workloads[2].pimManaged = false;

    rt::SystemConfig clean = makeConfig(SystemKind::HeteroPim);
    rt::SystemConfig faulty = faultConfig("transient-1e-2", 1);
    faulty.faults.killBanks = 4;
    EXPECT_EQ(hex(runDigest(clean, workloads)),
              hex(0xb52d6296263d9bb1ULL));
    EXPECT_EQ(hex(runDigest(faulty, workloads)),
              hex(0xc91c1954e3cde251ULL));
}

TEST(DispatchIdentity, ScheduleFuzzCorpora)
{
    using namespace schedule_fuzz;
    auto fold = [](std::size_t count, std::uint64_t base, auto &&point) {
        std::uint64_t h = sim::fnvOffsetBasis;
        for (std::size_t i = 0; i < count; ++i) {
            sim::Rng rng(sim::Rng::streamSeed(base, i));
            FuzzRun run = point(i, rng);
            h = sim::hashU64(digest(run.report, run.trace), h);
        }
        return h;
    };
    EXPECT_EQ(hex(fold(numFuzzPoints, fuzzBaseSeed,
                       [](std::size_t i, sim::Rng &rng) {
                           return randomPoint(i, rng, false);
                       })),
              hex(0xa3261bd7cee5b255ULL));
    EXPECT_EQ(hex(fold(numFuzzPoints, faultFuzzBaseSeed,
                       [](std::size_t i, sim::Rng &rng) {
                           return randomPoint(i, rng, true);
                       })),
              hex(0x9dae82aac3accfbcULL));
    EXPECT_EQ(hex(fold(numBuilderPoints, builderFuzzBaseSeed,
                       [](std::size_t i, sim::Rng &rng) {
                           return builderPoint(i, rng);
                       })),
              hex(0x8b06bdcf1b0a7f2bULL));
}

TEST(DispatchIdentity, WorkCountersArePinned)
{
    // Every column is exact and machine-independent. The Fig. 8 rows
    // go through the benches' path; the fault row through the one the
    // daemon and hpim_cli share.
    struct Row
    {
        const char *name;
        rt::ExecutionReport (*run)();
        std::uint64_t placementEvals;
        std::uint64_t events;
        std::uint64_t opsCompleted;
        std::uint64_t retries;
        std::size_t reportBytes;
    };
    const Row rows[] = {
        {"AlexNet on Fig. 8 Hetero",
         [] {
             return baseline::runSystem(SystemKind::HeteroPim,
                                        ModelId::AlexNet, kSteps);
         },
         933, 434, 328, 0, 1033},
        {"VGG-19 on Fig. 8 Hetero",
         [] {
             return baseline::runSystem(SystemKind::HeteroPim,
                                        ModelId::Vgg19, kSteps);
         },
         1581, 1003, 740, 0, 1017},
        {"AlexNet, 4 banks killed, 5% transient faults",
         [] {
             serve::SimulateSpec spec;
             spec.model = "alexnet";
             spec.system = "hetero";
             spec.steps = 2;
             spec.killBanks = 4;
             spec.faultRate = 0.05;
             return serve::runSimulate(spec);
         },
         405, 239, 164, 3, 1145},
    };
    for (const Row &row : rows) {
        obs::MetricsRegistry registry;
        registry.attach();
        rt::ExecutionReport report = row.run();
        registry.detach();
        EXPECT_EQ(registry.counter("rt.sched.placement_evals").value(),
                  row.placementEvals)
            << row.name;
        EXPECT_EQ(registry.counter("rt.sched.events").value(),
                  row.events)
            << row.name;
        EXPECT_EQ(registry.counter("rt.ops_completed").value(),
                  row.opsCompleted)
            << row.name;
        EXPECT_EQ(registry.counter("rt.retries").value(), row.retries)
            << row.name;
        EXPECT_EQ(harness::jsonString(report).size(), row.reportBytes)
            << row.name;
    }
}
