/**
 * @file
 * Per-bank health registers of the fixed-function pool (after the
 * status registers of paper SectionIV-D, Fig. 7).
 *
 * One register per bank of fixed-function units holds the bank's unit
 * capacity and its health state (HEALTHY / THROTTLED / FAILED), driven
 * by the fault-injection layer (sim::FaultModel): failed banks are
 * permanently retired from the pool and throttled banks are
 * temporarily unavailable. Which units are busy is not tracked here:
 * rt::Executor's pool allocator does that. The executor builds a
 * register file only when faults are on and reads the capacity left
 * after each health change through availableUnits() and aliveUnits()
 * (see docs/RESILIENCE.md).
 */

#ifndef HPIM_PIM_STATUS_REGISTERS_HH
#define HPIM_PIM_STATUS_REGISTERS_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace hpim::pim {

/** Health state of one fixed-function bank. */
enum class BankState : std::uint8_t
{
    Healthy,   ///< full capacity available
    Throttled, ///< thermally offline; recovers when the window ends
    Failed,    ///< permanently retired from the pool
};

/** The bank registers: capacity and health per bank. */
class StatusRegisterFile
{
  public:
    /**
     * @param banks number of fixed-function bank groups
     * @param units_per_bank units in each bank group
     */
    StatusRegisterFile(std::uint32_t banks,
                       std::vector<std::uint32_t> units_per_bank);

    /** @return total units across all banks, ignoring health. */
    std::uint32_t totalUnits() const { return _total_units; }

    /** @return health state of bank @p bank. */
    BankState bankState(std::uint32_t bank) const;

    /** Permanently retire bank @p bank (idempotent). */
    void markFailed(std::uint32_t bank);

    /** Enter/leave a thermal-throttle window. Failed banks stay
     *  failed regardless. */
    void setThrottled(std::uint32_t bank, bool throttled);

    /** @return unit capacity of bank @p bank, ignoring health. */
    std::uint32_t bankCapacity(std::uint32_t bank) const;

    /** @return capacity summed over Healthy banks (what the pool
     *  may allocate from). */
    std::uint32_t availableUnits() const;

    /** @return capacity summed over non-Failed banks (throttled banks
     *  count: they come back). */
    std::uint32_t aliveUnits() const;

    /** @return bit b set iff bank b is Healthy (banks beyond 64 are
     *  not representable and are omitted). */
    std::uint64_t healthMask() const;

    /** @return number of permanently failed banks. */
    std::uint32_t failedBanks() const { return _failed_banks; }

    std::uint32_t banks() const
    { return static_cast<std::uint32_t>(_capacity.size()); }

  private:
    void checkBank(std::uint32_t bank) const;

    std::vector<std::uint32_t> _capacity;
    std::vector<BankState> _state;
    std::uint32_t _total_units = 0;
    std::uint32_t _failed_banks = 0;
};

} // namespace hpim::pim

#endif // HPIM_PIM_STATUS_REGISTERS_HH
