/**
 * @file
 * Unit tests for the per-bank health registers (paper Fig. 7).
 */

#include <gtest/gtest.h>

#include "pim/status_registers.hh"

using hpim::pim::BankState;
using hpim::pim::StatusRegisterFile;

namespace {

StatusRegisterFile
fourBanks()
{
    return StatusRegisterFile(4, {10, 10, 10, 10});
}

} // namespace

TEST(StatusRegisters, InitialStateAllFree)
{
    auto regs = fourBanks();
    EXPECT_EQ(regs.totalUnits(), 40u);
    EXPECT_EQ(regs.availableUnits(), 40u);
    EXPECT_EQ(regs.aliveUnits(), 40u);
    EXPECT_EQ(regs.failedBanks(), 0u);
    for (std::uint32_t bank = 0; bank < regs.banks(); ++bank)
        EXPECT_EQ(regs.bankState(bank), BankState::Healthy);
}

TEST(StatusRegisters, UnevenBankCapacities)
{
    // Edge-biased placement gives banks unequal unit counts.
    StatusRegisterFile regs(3, {20, 5, 15});
    EXPECT_EQ(regs.totalUnits(), 40u);
    EXPECT_EQ(regs.bankCapacity(0), 20u);
    EXPECT_EQ(regs.bankCapacity(1), 5u);
    EXPECT_EQ(regs.bankCapacity(2), 15u);
    // Retiring the small bank removes exactly its own units.
    regs.markFailed(1);
    EXPECT_EQ(regs.availableUnits(), 35u);
    EXPECT_EQ(regs.aliveUnits(), 35u);
}

TEST(StatusRegisters, FailedBankRetiresPermanently)
{
    auto regs = fourBanks();
    regs.markFailed(2);
    EXPECT_EQ(regs.bankState(2), BankState::Failed);
    EXPECT_EQ(regs.failedBanks(), 1u);
    EXPECT_EQ(regs.availableUnits(), 30u);
    EXPECT_EQ(regs.aliveUnits(), 30u);
    // Capacity is a property of the bank, not of its health.
    EXPECT_EQ(regs.bankCapacity(2), 10u);
    EXPECT_EQ(regs.totalUnits(), 40u);
    // Idempotent; un-throttling cannot resurrect a failed bank.
    regs.markFailed(2);
    EXPECT_EQ(regs.failedBanks(), 1u);
    regs.setThrottled(2, false);
    EXPECT_EQ(regs.bankState(2), BankState::Failed);
    EXPECT_EQ(regs.availableUnits(), 30u);
}

TEST(StatusRegisters, ThrottledBankComesBack)
{
    auto regs = fourBanks();
    regs.setThrottled(1, true);
    EXPECT_EQ(regs.bankState(1), BankState::Throttled);
    EXPECT_EQ(regs.availableUnits(), 30u);
    EXPECT_EQ(regs.aliveUnits(), 40u); // throttled still counts alive
    EXPECT_EQ(regs.failedBanks(), 0u);
    regs.setThrottled(1, false);
    EXPECT_EQ(regs.bankState(1), BankState::Healthy);
    EXPECT_EQ(regs.availableUnits(), 40u);
}

TEST(StatusRegisters, HealthMaskTracksStates)
{
    auto regs = fourBanks();
    EXPECT_EQ(regs.healthMask(), 0b1111u);
    regs.markFailed(0);
    regs.setThrottled(2, true);
    EXPECT_EQ(regs.healthMask(), 0b1010u);
    regs.setThrottled(2, false);
    EXPECT_EQ(regs.healthMask(), 0b1110u);
}

TEST(StatusRegistersDeath, BadBankPanics)
{
    auto regs = fourBanks();
    EXPECT_DEATH(regs.bankCapacity(4), "out of range");
    EXPECT_DEATH(regs.bankState(4), "out of range");
    EXPECT_DEATH(regs.markFailed(4), "out of range");
}

TEST(StatusRegistersDeath, MismatchedVectorIsFatal)
{
    EXPECT_EXIT(StatusRegisterFile(4, {1, 2}),
                testing::ExitedWithCode(1), "entries");
}
