#include "sim/fault_model.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace hpim::sim {

FaultModel::FaultModel(const FaultConfig &config,
                       const std::vector<std::uint32_t> &units_per_bank,
                       std::vector<double> bank_temp_c)
    : _config(config), _rng(config.seed)
{
    fatal_if(_config.transientRatePerOp < 0.0
                 || _config.transientRatePerOp > 1.0,
             "transientRatePerOp must be in [0, 1], got ",
             _config.transientRatePerOp);
    fatal_if(_config.stallRatePerOp < 0.0
                 || _config.stallRatePerOp > 1.0,
             "stallRatePerOp must be in [0, 1], got ",
             _config.stallRatePerOp);
    fatal_if(_config.maxAttempts == 0,
             "maxAttempts must be at least 1");

    const auto banks =
        static_cast<std::uint32_t>(units_per_bank.size());

    // ---- Permanent kills: a sequential distinct-bank walk, so the
    // kill set for k banks is a prefix of the set for k + 1 under the
    // same seed (monotone capacity-vs-kills sweeps).
    std::uint32_t kills = std::min(_config.killBanks, banks);
    if (kills < _config.killBanks) {
        warn("killBanks ", _config.killBanks, " clamped to ", banks,
             " (bank count)");
    }
    std::vector<bool> dead(banks, false);
    for (std::uint32_t k = 0; k < kills; ++k) {
        std::uint32_t bank;
        do {
            bank = static_cast<std::uint32_t>(_rng.below(banks));
        } while (dead[bank]);
        dead[bank] = true;
        _kills.push_back(
            {_rng.uniform(0.0, _config.killSpreadSec), bank});
    }
    std::stable_sort(_kills.begin(), _kills.end(),
                     [](const BankKill &a, const BankKill &b) {
                         return a.timeSec < b.timeSec;
                     });

    // ---- Thermal throttling: banks above the threshold duty-cycle
    // offline with a per-bank phase offset.
    if (!bank_temp_c.empty()) {
        fatal_if(bank_temp_c.size() != units_per_bank.size(),
                 "bank_temp_c has ", bank_temp_c.size(),
                 " entries for ", banks, " banks");
        double duty =
            std::clamp(_config.throttleDutyFrac, 0.0, 1.0);
        double period = std::max(_config.throttlePeriodSec, 1e-9);
        for (std::uint32_t b = 0; b < banks; ++b) {
            if (bank_temp_c[b] <= _config.throttleTempC
                || duty <= 0.0) {
                continue;
            }
            ThrottleSpec spec;
            spec.bank = b;
            spec.firstStartSec = _rng.uniform(0.0, period);
            spec.onSec = period * duty;
            spec.offSec = std::max(period - spec.onSec, 1e-9);
            _throttles.push_back(spec);
        }
    }
}

FaultModel::Attempt
FaultModel::drawAttempt(bool can_stall)
{
    if (can_stall && _rng.chance(_config.stallRatePerOp))
        return Attempt::Stall;
    if (_rng.chance(_config.transientRatePerOp))
        return Attempt::Transient;
    return Attempt::Success;
}

double
FaultModel::backoffSec(std::uint32_t attempt) const
{
    double exp = attempt > 0 ? static_cast<double>(attempt - 1) : 0.0;
    return std::min(_config.backoffBaseSec * std::pow(2.0, exp),
                    _config.backoffCapSec);
}

double
FaultModel::stallTimeoutSec(double expected_sec) const
{
    return std::max(_config.stallTimeoutFloorSec,
                    _config.stallTimeoutMult * expected_sec);
}

} // namespace hpim::sim
