/**
 * @file
 * Text-table output helpers shared by the bench harnesses.
 */

#ifndef HPIM_HARNESS_TABLE_PRINTER_HH
#define HPIM_HARNESS_TABLE_PRINTER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace hpim::harness {

/** A simple fixed-column text table. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers);

    /** Add a row; must have as many cells as there are headers. */
    void addRow(std::vector<std::string> row);

    /** Render with aligned columns. */
    void print(std::ostream &os) const;

    std::size_t rows() const { return _rows.size(); }

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

/** Format a double with @p digits significant decimals. */
std::string fmt(double value, int digits = 3);

/** Format a ratio as "12.3x". */
std::string fmtRatio(double value, int digits = 2);

/** Format a fraction as "98.7%". */
std::string fmtPct(double value, int digits = 1);

/** Print a section banner. */
void banner(std::ostream &os, const std::string &title);

} // namespace hpim::harness

#endif // HPIM_HARNESS_TABLE_PRINTER_HH
