/**
 * @file
 * Deterministic fault injection for the simulated PIM stack.
 *
 * Real PIM hardware is not the uniformly reliable device the paper's
 * evaluation assumes: per-unit variability, hard bank failures and
 * thermal throttling all shift capacity under a running schedule (the
 * UPMEM characterization, arXiv:2207.07886, reports exactly this).
 * A FaultModel turns a FaultConfig into a reproducible fault schedule:
 *
 *  - transient unit faults  -- an offloaded attempt completes but its
 *    result fails verification and must be re-executed;
 *  - kernel stalls          -- a programmable-PIM kernel hangs and is
 *    only reclaimed by the runtime's per-op watchdog timeout;
 *  - permanent bank kills   -- whole fixed-function banks retire from
 *    the malleable pool at drawn points in simulated time;
 *  - thermal throttling     -- banks whose steady-state temperature
 *    (model::solveThermal) exceeds a threshold duty-cycle offline.
 *
 * Everything is drawn from a private Rng stream seeded from
 * FaultConfig::seed, so a fault schedule is a pure function of the
 * config: bit-identical across reruns, worker counts and sweep
 * orderings. Kills are drawn as a sequential distinct-bank walk, so
 * the kill set for `killBanks = k` is a prefix of the set for `k + 1`
 * under the same seed -- capacity-vs-kills sweeps are monotone by
 * construction.
 *
 * The model lives in sim and knows nothing about pim/model types: the
 * caller supplies per-bank unit counts and (optionally) per-bank
 * steady-state temperatures as plain vectors.
 */

#ifndef HPIM_SIM_FAULT_MODEL_HH
#define HPIM_SIM_FAULT_MODEL_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace hpim::sim {

/** Fault-injection knobs; all off by default (zero-cost when off). */
struct FaultConfig
{
    /** Master switch; false keeps every simulated run bit-identical
     *  to a build without the fault layer. */
    bool enabled = false;

    // ---- Transient faults / stalls (per offload attempt).
    /** P(an offloaded attempt fails result verification). */
    double transientRatePerOp = 0.0;
    /** P(a programmable-PIM kernel launch stalls forever). */
    double stallRatePerOp = 0.0;

    // ---- Retry policy.
    /** Attempts per degradation rung before the op drops a rung
     *  (fixed-function -> programmable PIM -> CPU). */
    std::uint32_t maxAttempts = 3;
    /** First retry delay; doubles per attempt (exponential backoff). */
    double backoffBaseSec = 2e-5;
    /** Backoff ceiling. */
    double backoffCapSec = 5e-3;
    /** Watchdog timeout = max(floor, mult x expected duration). */
    double stallTimeoutMult = 4.0;
    double stallTimeoutFloorSec = 1e-4;

    // ---- Permanent bank failures.
    /** Fixed-function banks that fail hard (clamped to bank count). */
    std::uint32_t killBanks = 0;
    /** Kill times are drawn uniformly from [0, killSpreadSec). */
    double killSpreadSec = 0.05;

    // ---- Thermal throttling.
    /** Banks whose solved steady-state temperature exceeds this
     *  duty-cycle offline. The defaults never trip at stock clocks;
     *  lower the threshold (or raise frequencyScale) to engage it. */
    double throttleTempC = 85.0;
    double throttlePeriodSec = 2e-3;
    /** Fraction of each period a hot bank spends throttled. */
    double throttleDutyFrac = 0.25;

    /** Seed of the fault schedule's private Rng stream. */
    std::uint64_t seed = defaultSeed;
};

/** One permanent bank failure. */
struct BankKill
{
    double timeSec = 0.0;
    std::uint32_t bank = 0;
};

/** Periodic throttle pattern of one thermally-limited bank. */
struct ThrottleSpec
{
    std::uint32_t bank = 0;
    double firstStartSec = 0.0; ///< phase offset of the first window
    double onSec = 0.0;         ///< throttled span per period
    double offSec = 0.0;        ///< healthy span per period
};

/** The fault schedule + per-attempt draws. See file comment. */
class FaultModel
{
  public:
    /** Outcome drawn for one offload attempt. */
    enum class Attempt { Success, Transient, Stall };

    /**
     * @param config fault knobs (enabled is not re-checked here)
     * @param units_per_bank fixed-pool units hosted by each bank
     * @param bank_temp_c solved steady-state temperature per bank;
     *        empty disables thermal throttling
     */
    FaultModel(const FaultConfig &config,
               const std::vector<std::uint32_t> &units_per_bank,
               std::vector<double> bank_temp_c = {});

    const FaultConfig &config() const { return _config; }

    /** Permanent failures, sorted by time. */
    const std::vector<BankKill> &kills() const { return _kills; }

    /** Throttle patterns of the banks above the thermal threshold. */
    const std::vector<ThrottleSpec> &throttles() const
    { return _throttles; }

    /**
     * Draw the outcome of one offload attempt (advances the stream).
     * @param can_stall true for programmable-PIM kernel launches
     */
    Attempt drawAttempt(bool can_stall);

    /** Backoff before retry number @p attempt (1-based), seconds. */
    double backoffSec(std::uint32_t attempt) const;

    /** Watchdog timeout for a kernel expected to take @p expected_sec. */
    double stallTimeoutSec(double expected_sec) const;

  private:
    FaultConfig _config;
    Rng _rng;
    std::vector<BankKill> _kills;
    std::vector<ThrottleSpec> _throttles;
};

} // namespace hpim::sim

#endif // HPIM_SIM_FAULT_MODEL_HH
