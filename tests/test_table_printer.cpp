/**
 * @file
 * Unit tests for the text-table output helpers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/table_printer.hh"

using namespace hpim::harness;

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter table({"model", "time"});
    table.addRow({"VGG-19", "1.5"});
    table.addRow({"A", "123456"});
    std::ostringstream os;
    table.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("| model  | time   |"), std::string::npos);
    EXPECT_NE(text.find("| VGG-19 | 1.5    |"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(TablePrinterDeath, RowAritiesChecked)
{
    TablePrinter table({"a", "b"});
    EXPECT_EXIT(table.addRow({"only one"}), testing::ExitedWithCode(1),
                "cells");
}

TEST(TablePrinterDeath, EmptyHeaderIsFatal)
{
    EXPECT_EXIT(TablePrinter({}), testing::ExitedWithCode(1),
                "at least one column");
}

TEST(Formatters, FixedDigits)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmtRatio(2.5), "2.50x");
    EXPECT_EQ(fmtPct(99.95, 1), "100.0%"); // round-half-up
    EXPECT_EQ(fmtPct(12.34, 1), "12.3%");
}

TEST(Banner, ContainsTitle)
{
    std::ostringstream os;
    banner(os, "Fig. 8");
    EXPECT_NE(os.str().find("Fig. 8"), std::string::npos);
    EXPECT_NE(os.str().find("===="), std::string::npos);
}
