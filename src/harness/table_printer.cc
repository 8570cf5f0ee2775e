#include "harness/table_printer.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "sim/logging.hh"

namespace hpim::harness {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
    fatal_if(_headers.empty(), "table needs at least one column");
}

void
TablePrinter::addRow(std::vector<std::string> row)
{
    fatal_if(row.size() != _headers.size(), "row has ", row.size(),
             " cells; table has ", _headers.size(), " columns");
    _rows.push_back(std::move(row));
}

void
TablePrinter::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(_headers.size());
    for (std::size_t c = 0; c < _headers.size(); ++c)
        widths[c] = _headers[c].size();
    for (const auto &row : _rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto rule = [&] {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            os << '+' << std::string(widths[c] + 2, '-');
        }
        os << "+\n";
    };
    auto line = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << "| " << std::left << std::setw(int(widths[c]))
               << cells[c] << ' ';
        }
        os << "|\n";
    };

    rule();
    line(_headers);
    rule();
    for (const auto &row : _rows)
        line(row);
    rule();
}

std::string
fmt(double value, int digits)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(digits) << value;
    return os.str();
}

std::string
fmtRatio(double value, int digits)
{
    return fmt(value, digits) + "x";
}

std::string
fmtPct(double value, int digits)
{
    return fmt(value, digits) + "%";
}

void
banner(std::ostream &os, const std::string &title)
{
    os << '\n' << std::string(72, '=') << '\n'
       << "  " << title << '\n'
       << std::string(72, '=') << '\n';
}

} // namespace hpim::harness
