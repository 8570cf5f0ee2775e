/**
 * @file
 * Resilience sweep: how training on the heterogeneous PIM degrades as
 * fixed-function banks are killed and as transient fault rates rise
 * (docs/RESILIENCE.md). Two tables:
 *
 *  1. capacity vs killed banks -- every row uses the same
 *     --fault-seed, so the kill sets are prefixes of each other and
 *     the surviving capacity is monotone non-increasing down the
 *     table by construction;
 *  2. per-op transient/stall fault-rate sweep -- retries, backoff
 *     time, degradations and the resulting step-time inflation.
 *
 * Flags: --jobs N, --seed S (sweep engine), --journal DIR
 * (crash-safe checkpoint/resume), --shard i/N (own one slice of a
 * distributed run; merge the journals with hpim_merge,
 * docs/SWEEP_ENGINE.md), --fault-seed S (fault schedule; default the
 * engine's defaultSeed). Output is deterministic in --fault-seed
 * whatever --jobs says; CI diffs reruns of this binary (minus the
 * [sweep] footer) to enforce it, the kill-and-resume job SIGKILLs a
 * journaled run partway and diffs the resumed output against a clean
 * run, and the shard-validation job runs three --shard processes
 * (one SIGKILLed and restarted), merges, and demands the byte-
 * identical unsharded journal. A sharded process prints a partial
 * table (rows outside its slice default-initialized); only the
 * merged journal's resumed table is contractual.
 */

#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "baseline/presets.hh"
#include "harness/sweep.hh"
#include "harness/table_printer.hh"
#include "nn/models.hh"
#include "rt/executor.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace {

using namespace hpim;

constexpr std::uint32_t kSteps = 2;
constexpr nn::ModelId kModel = nn::ModelId::AlexNet;

rt::ExecutionReport
runFaulted(const sim::FaultConfig &faults)
{
    rt::SystemConfig config =
        baseline::makeConfig(baseline::SystemKind::HeteroPim);
    config.faults = faults;
    config.faults.enabled = true;
    nn::Graph graph = nn::buildModel(kModel);
    rt::Executor executor(config);
    return executor.run(graph, kSteps);
}

std::uint32_t
finalCapacity(const rt::ExecutionReport &report)
{
    return report.capacityTimeline.empty()
               ? 0
               : report.capacityTimeline.back().units;
}

} // namespace

int
main(int argc, char **argv)
{
    using harness::fmt;

    // Split off --fault-seed before the engine parser (which rejects
    // flags it does not know).
    std::uint64_t fault_seed = sim::defaultSeed;
    std::vector<char *> engine_args = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string text;
        if (arg.rfind("--fault-seed=", 0) == 0) {
            text = arg.substr(std::strlen("--fault-seed="));
        } else if (arg == "--fault-seed" && i + 1 < argc) {
            text = argv[++i];
        } else {
            engine_args.push_back(argv[i]);
            continue;
        }
        std::optional<std::uint64_t> seed = harness::parseUnsigned(text);
        if (!seed)
            fatal("--fault-seed expects an unsigned integer, got '",
                  text, "'");
        fault_seed = *seed;
    }
    harness::SweepRunner runner(harness::parseSweepArgs(
        static_cast<int>(engine_args.size()), engine_args.data()));

    harness::banner(std::cout,
                    "Resilience: capacity vs killed banks ("
                        + nn::modelName(kModel) + ", fault seed "
                        + std::to_string(fault_seed) + ")");

    // One row per kill count; the shared seed makes kill set k a
    // prefix of kill set k+1 (FaultModel draws a distinct-bank walk),
    // so surviving capacity can only shrink down the table.
    const std::vector<std::uint32_t> kill_counts = {0,  4,  8,  12,
                                                    16, 24, 32};
    std::uint64_t kills_hash = sim::hashU64(
        fault_seed, sim::hashString("fault_sweep/kills v1"));
    for (std::uint32_t kills : kill_counts)
        kills_hash = sim::hashU64(kills, kills_hash);
    auto kill_reports = runner.mapReports(
        kill_counts.size(), kills_hash, [&](std::size_t i, sim::Rng &) {
            sim::FaultConfig faults;
            faults.seed = fault_seed;
            faults.killBanks = kill_counts[i];
            faults.transientRatePerOp = 1e-3;
            return runFaulted(faults);
        });

    harness::TablePrinter kills(
        {"killed banks", "units lost", "capacity left", "step (ms)",
         "faults", "retries", "degraded", "evicted"});
    for (std::size_t i = 0; i < kill_counts.size(); ++i) {
        const auto &report = kill_reports[i];
        kills.addRow({std::to_string(report.banksFailed),
                      std::to_string(report.unitsLost),
                      std::to_string(finalCapacity(report)),
                      fmt(report.stepSec * 1e3, 2),
                      std::to_string(report.transientFaults),
                      std::to_string(report.retries),
                      std::to_string(report.opsDegraded),
                      std::to_string(report.opsEvicted)});
    }
    kills.print(std::cout);

    harness::banner(std::cout,
                    "Resilience: transient/stall fault-rate sweep ("
                        + nn::modelName(kModel) + ")");

    struct RatePoint
    {
        double transient;
        double stall;
    };
    const std::vector<RatePoint> rates = {
        {0.0, 0.0},   {1e-4, 0.0},  {1e-3, 1e-4},
        {1e-2, 1e-3}, {0.05, 1e-2}, {1.0, 0.0},
    };
    std::uint64_t rates_hash = sim::hashU64(
        fault_seed, sim::hashString("fault_sweep/rates v1"));
    for (const RatePoint &rate : rates) {
        rates_hash = sim::hashBytes(&rate.transient,
                                    sizeof rate.transient, rates_hash);
        rates_hash =
            sim::hashBytes(&rate.stall, sizeof rate.stall, rates_hash);
    }
    auto rate_reports =
        runner.mapReports(rates.size(), rates_hash,
                          [&](std::size_t i, sim::Rng &) {
            sim::FaultConfig faults;
            faults.seed = fault_seed;
            faults.transientRatePerOp = rates[i].transient;
            faults.stallRatePerOp = rates[i].stall;
            return runFaulted(faults);
        });

    harness::TablePrinter table(
        {"transient/op", "stall/op", "step (ms)", "faults", "stalls",
         "retries", "backoff (ms)", "degraded", "cpu ops"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &report = rate_reports[i];
        std::uint64_t cpu_ops = 0;
        auto it = report.opsByPlacement.find(rt::PlacedOn::Cpu);
        if (it != report.opsByPlacement.end())
            cpu_ops = it->second;
        table.addRow({fmt(rates[i].transient, 4),
                      fmt(rates[i].stall, 4),
                      fmt(report.stepSec * 1e3, 2),
                      std::to_string(report.transientFaults),
                      std::to_string(report.kernelStalls),
                      std::to_string(report.retries),
                      fmt(report.retryBackoffSec * 1e3, 3),
                      std::to_string(report.opsDegraded),
                      std::to_string(cpu_ops)});
    }
    table.print(std::cout);
    harness::printSweepSummary(std::cout, runner.stats());
    return 0;
}
