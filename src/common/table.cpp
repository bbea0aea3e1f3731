#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "common/error.hpp"
#include "common/format.hpp"

namespace rfid {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  RFID_EXPECTS(!headers_.empty());
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  RFID_EXPECTS(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const auto rule = [&] {
    os << '+';
    for (const std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  const auto line = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c)
      os << ' ' << std::left << std::setw(static_cast<int>(widths[c]))
         << cells[c] << " |";
    os << '\n';
  };

  if (!title_.empty()) os << title_ << '\n';
  rule();
  line(headers_);
  rule();
  for (const auto& row : rows_) line(row);
  rule();
}

std::string TablePrinter::num(double value, int digits) {
  return format_double(value, digits, FloatFormat::kFixed);
}

}  // namespace rfid
