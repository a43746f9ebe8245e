#pragma once

// Experiment output: CSV series (one row per trace point) and fixed-width
// console tables, so each bench binary prints both the machine-readable data
// behind a figure and a human-readable summary of the paper-vs-measured
// comparison.

#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/trace.hpp"

namespace asyncml::metrics {

/// Writes `trace` as CSV rows: series,time_ms,update,error
void write_trace_csv(std::ostream& out, const std::string& series, const Trace& trace);

/// CSV header matching write_trace_csv.
void write_trace_csv_header(std::ostream& out);

/// Simple fixed-width table for console summaries.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& out) const;

  /// Formats a double with `precision` significant digits, but never drops
  /// integer digits: values that would round to 10^precision or more print
  /// in fixed notation (2e5 at precision 3 prints "200000", not "2e+05").
  [[nodiscard]] static std::string num(double v, int precision = 4);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace asyncml::metrics
