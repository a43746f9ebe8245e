#include "metrics/report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace asyncml::metrics {

void write_trace_csv_header(std::ostream& out) { out << "series,time_ms,update,error\n"; }

void write_trace_csv(std::ostream& out, const std::string& series, const Trace& trace) {
  for (const TracePoint& p : trace) {
    out << series << ',' << p.time_ms << ',' << p.update << ',' << p.error << '\n';
  }
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  // The default float format turns scientific once rounding to `precision`
  // significant digits reaches 10^precision, printing 1234.5 at precision 1
  // as "1e+03"; from there on print every integer digit instead.
  if (std::abs(v) >= std::pow(10.0, precision) - 0.5) {
    os << std::fixed << std::setprecision(0);
  } else {
    os << std::setprecision(precision);
  }
  os << v;
  return os.str();
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    out << "  ";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cell;
    }
    out << '\n';
  };
  print_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += std::string(widths[c] + 2, '-');
  out << "  " << rule << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace asyncml::metrics
