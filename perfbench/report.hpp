#pragma once

// Run context, result record and the JSON/diagnostic output of one run.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct RunContext {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string workdir;        ///< per-run working directory (tier directories)
  std::string worker_binary;  ///< wire endpoint for the socket backend
  CpuTicks ticks_start;
  double cpu_start = 0.0;
  double children_start = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< task attempts (completed + failed)
  std::uint64_t failed = 0;     ///< failed attempts + tasks of failed checks
  std::vector<Metric> metrics;
  /// Steadiness and layout notes printed beside the result, never compared.
  std::vector<std::pair<std::string, std::string>> diagnostics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    diagnostics.emplace_back(std::move(key), std::move(value));
  }
  [[nodiscard]] std::string json() const;
};

/// One untraced solver run of the workload's fixed update budget.
struct Episode {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< this process plus its live wire children
  std::uint64_t updates = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double time_to_target_s = 0.0;  ///< the episode's wall time when never reached
  double updates_to_target = 0.0;  ///< the budget when never reached
  bool reached_target = false;
  double final_error = 0.0;
  double wait_p50_us = 0.0;
  double wait_p99_us = 0.0;
  std::uint64_t wait_samples = 0;
  double steal = 0.0;  ///< host steal share over the episode
  double peak_rss_mb = 0.0;  ///< peak resident set during the episode
  bool correct = false;
  // The episode's set-up: data generation, step tuning and cluster start.
  double data_s = 0.0;
  double tune_s = 0.0;
  double cluster_start_s = 0.0;
};

/// Flushes the filesystem holding `dir` (between disk-tier episodes).
void sync_filesystem(const std::string& dir);

/// Replaces the set-up's cluster with a freshly started one; returns the
/// seconds the start took (the old cluster's shutdown not included).
double fresh_cluster(const RunContext& ctx, Setup& setup);

/// Runs episode `index` on its own inputs (episode_seed) and a fresh
/// cluster, and checks its result.
[[nodiscard]] Episode run_episode(const RunContext& ctx, Setup& setup, int index,
                                  RunOutcome& out);

[[nodiscard]] RunOutcome run_untraced(const RunContext& ctx);

/// Records the median set-up time over `episodes` as setup_s, or with
/// `per_layer` the medians of its three parts.
void add_setup_metrics(const std::vector<Episode>& episodes, RunOutcome& out, bool per_layer);

/// Steal share, process and child CPU, thread layout and tier filesystem.
void print_diagnostics(const RunContext& ctx, const RunOutcome& outcome);

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] std::string fmt(double value);

}  // namespace perfbench
