#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string RunOutcome::json() const {
  bool finite = true;
  std::ostringstream body;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    finite = finite && std::isfinite(m.value);
    body << (i == 0 ? "" : ", ") << '"' << json_escape(m.name) << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
  }
  std::ostringstream os;
  os << "{\"correct\": " << (correct && finite ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(1, attempted)
     << ", \"failed\": " << failed << ", \"metrics\": {" << body.str() << "}}";
  return os.str();
}

void print_diagnostics(const RunContext& ctx, const RunOutcome& outcome) {
  const WorkloadSpec& spec = *ctx.spec;
  const double cpu = self_cpu_s() - ctx.cpu_start;
  const double children = reaped_children_cpu_s() - ctx.children_start;
  std::cout << "perfbench " << spec.name << " seed=" << ctx.seed
            << " seconds=" << fmt(ctx.seconds) << '\n';
  std::cout << "  steal share (/proc/stat over the run): "
            << fmt(steal_share(ctx.ticks_start, read_cpu_ticks())) << '\n';
  std::cout << "  cpu: process " << fmt(cpu) << " s, reaped children " << fmt(children)
            << " s\n";
  const int wire = spec.backend == am::transport::Backend::kInProcess ? 0 : spec.workers;
  std::cout << "  thread layout: driver 1 + coordinator drain 1 + executors "
            << spec.workers << " x 1 core + wire processes " << wire << "; nproc "
            << std::thread::hardware_concurrency() << '\n';
  for (const auto& [key, value] : outcome.diagnostics) {
    std::cout << "  " << key << ": " << value << '\n';
  }
  for (const Metric& m : outcome.metrics) {
    std::cout << "  " << m.name << " = " << fmt(m.value) << ' ' << m.unit << '\n';
  }
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace perfbench
