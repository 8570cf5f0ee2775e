#include "pim/status_registers.hh"

#include <algorithm>
#include <numeric>

#include "obs/metrics.hh"

namespace hpim::pim {

StatusRegisterFile::StatusRegisterFile(
    std::uint32_t banks, std::vector<std::uint32_t> units_per_bank)
    : _capacity(std::move(units_per_bank))
{
    fatal_if(_capacity.size() != banks,
             "units_per_bank has ", _capacity.size(), " entries for ",
             banks, " banks");
    _state.assign(_capacity.size(), BankState::Healthy);
    _total_units =
        std::accumulate(_capacity.begin(), _capacity.end(), 0u);
}

void
StatusRegisterFile::checkBank(std::uint32_t bank) const
{
    panic_if(bank >= _capacity.size(), "bank ", bank, " out of range ",
             _capacity.size());
}

BankState
StatusRegisterFile::bankState(std::uint32_t bank) const
{
    checkBank(bank);
    return _state[bank];
}

void
StatusRegisterFile::markFailed(std::uint32_t bank)
{
    checkBank(bank);
    if (_state[bank] == BankState::Failed)
        return;
    _state[bank] = BankState::Failed;
    ++_failed_banks;
    if (auto *registry = hpim::obs::MetricsRegistry::current()) {
        registry->counter("pim.banks_failed").add(1);
        registry->gauge("pim.alive_units").set(aliveUnits());
    }
}

void
StatusRegisterFile::setThrottled(std::uint32_t bank, bool throttled)
{
    checkBank(bank);
    if (_state[bank] == BankState::Failed)
        return;
    _state[bank] =
        throttled ? BankState::Throttled : BankState::Healthy;
    if (auto *registry = hpim::obs::MetricsRegistry::current()) {
        if (throttled)
            registry->counter("pim.throttle_windows").add(1);
        registry->gauge("pim.available_units").set(availableUnits());
    }
}

std::uint32_t
StatusRegisterFile::bankCapacity(std::uint32_t bank) const
{
    checkBank(bank);
    return _capacity[bank];
}

std::uint32_t
StatusRegisterFile::availableUnits() const
{
    std::uint32_t units = 0;
    for (std::size_t i = 0; i < _capacity.size(); ++i) {
        if (_state[i] == BankState::Healthy)
            units += _capacity[i];
    }
    return units;
}

std::uint32_t
StatusRegisterFile::aliveUnits() const
{
    std::uint32_t units = 0;
    for (std::size_t i = 0; i < _capacity.size(); ++i) {
        if (_state[i] != BankState::Failed)
            units += _capacity[i];
    }
    return units;
}

std::uint64_t
StatusRegisterFile::healthMask() const
{
    std::uint64_t mask = 0;
    std::size_t bits = std::min<std::size_t>(_capacity.size(), 64);
    for (std::size_t i = 0; i < bits; ++i) {
        if (_state[i] == BankState::Healthy)
            mask |= std::uint64_t(1) << i;
    }
    return mask;
}

} // namespace hpim::pim
