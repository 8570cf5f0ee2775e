/**
 * @file
 * Unit tests for the DRAM energy parameters -- including the
 * PIM-critical property that in-stack accesses are cheaper than link
 * crossings.
 */

#include <gtest/gtest.h>

#include "rt/system_config.hh"

using hpim::rt::DramEnergyParams;

TEST(DramEnergy, InternalAccessCheaperThanLink)
{
    DramEnergyParams hmc = DramEnergyParams::hmc();
    // Array access vs array + SerDes: the PIM advantage.
    EXPECT_LT(hmc.readPerBytePj, hmc.linkPerBytePj);
}

TEST(DramEnergy, Ddr4CostlierPerByteThanHmcArray)
{
    EXPECT_GT(DramEnergyParams::ddr4().linkPerBytePj,
              DramEnergyParams::hmc().readPerBytePj);
}

TEST(DramEnergy, SameTrafficCheaperInsideStack)
{
    // One megabyte moved: PIM pays array only; host pays array+link.
    const double bytes = 1e6;
    DramEnergyParams p = DramEnergyParams::hmc();
    double internal_pj = bytes * p.readPerBytePj;
    double external_pj = bytes * (p.readPerBytePj + p.linkPerBytePj);
    EXPECT_LT(internal_pj, external_pj / 5.0);
}
