#pragma once

// Engine benchmark: workload table, set-up, untraced episodes and the
// process-level probes (CPU, steal, RSS, filesystem) they are measured with.
//
// Every workload runs with all modeled delays off (no service floor, no
// network charge, no straggler model), so the numbers are the engine's own
// work. See README.md in this directory for the workloads and metrics.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asyncml.hpp"

namespace perfbench {

namespace am = asyncml;

enum class Solver { kAsgd, kAsaga, kScheduledSgd };

struct WorkloadSpec {
  std::string name;
  Solver solver = Solver::kAsgd;
  bool dense_data = false;  ///< epsilon-like dense stand-in, else rcv1-like sparse
  am::transport::Backend backend = am::transport::Backend::kInProcess;
  int workers = 3;
  int partitions = 3;
  double batch_fraction = 0.05;
  double step_scale = 1.0;  ///< initial step = step_scale / L (objective smoothness)
  std::uint64_t budget = 0;        ///< model updates per episode
  std::uint64_t eval_points = 64;  ///< convergence-trace snapshots per episode
  bool disk = false;               ///< durable tier on, write-through, fsync off
  std::uint64_t checkpoint_every = 0;
  double target = 0.0;          ///< objective for time/updates-to-target
  double error_ceiling = 0.0;   ///< async correctness: final objective at most this
  /// Traced runs also run one episode of this workload on the same seed, for
  /// the layers this one bypasses (empty = none).
  std::string probe;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// The seeded inputs of one solver run: the partitioned data and the tuned
/// step.
struct Inputs {
  am::optim::Workload workload;
  double step = 0.0;
  double data_s = 0.0;
  double tune_s = 0.0;
};

/// Generates the data from `seed` and tunes the step. A step proportional to
/// 1/L (L = the loss's smoothness on this data) moves smoothly with the seed,
/// where a grid search would jump between grid points and change the
/// convergence rate.
[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Seed of episode `index`'s inputs. Every episode draws its own data, so a
/// run's convergence figures are medians over many datasets instead of
/// following one dataset's spectrum.
[[nodiscard]] std::uint64_t episode_seed(std::uint64_t run_seed, int index);

/// What an episode's set-up builds: its inputs and a started cluster (wire
/// processes spawned and handshaken on the socket backend).
struct Setup {
  Inputs inputs;
  std::unique_ptr<am::engine::Cluster> cluster;
};

[[nodiscard]] am::engine::Cluster::Config cluster_config(const WorkloadSpec& spec,
                                                         const std::string& worker_binary);

/// Solver configuration of one run. `tier_dir` is used only when the
/// workload has the disk tier on.
[[nodiscard]] am::optim::SolverConfig solver_config(const WorkloadSpec& spec,
                                                    const Inputs& inputs,
                                                    std::uint64_t seed,
                                                    const std::string& tier_dir);

[[nodiscard]] am::optim::RunResult run_solver(const WorkloadSpec& spec,
                                              am::engine::Cluster& cluster,
                                              const am::optim::Workload& workload,
                                              const am::optim::SolverConfig& config);

/// The synchronous workloads' oracle: the same ScheduledSgd run on an
/// in-process cluster with the disk tier off.
[[nodiscard]] am::linalg::DenseVector reference_model(const WorkloadSpec& spec,
                                                      const Inputs& inputs,
                                                      std::uint64_t seed);

/// Largest |a_i - b_i|; +inf when the sizes differ or a value is not finite.
[[nodiscard]] double max_abs_diff(const am::linalg::DenseVector& a,
                                  const am::linalg::DenseVector& b);

/// Quantile of a log-bucketed histogram, interpolated linearly by rank
/// inside the bucket that holds it (Histogram::quantile_ns returns bucket
/// midpoints, which move in factor-of-two steps).
[[nodiscard]] double interpolated_quantile_ns(const am::support::Histogram& hist, double q);

/// When the objective first falls to `target`: the first trace point at or
/// below it, interpolated against its predecessor in log(objective) so the
/// estimate does not move in whole snapshot intervals.
struct TargetHit {
  double time_s = 0.0;
  double updates = 0.0;
};
[[nodiscard]] std::optional<TargetHit> reach_target(const am::metrics::Trace& trace,
                                                    double target);

// ---- process probes --------------------------------------------------------

/// User plus system CPU seconds of this process (all threads).
[[nodiscard]] double self_cpu_s();
/// User plus system CPU seconds of reaped children (RUSAGE_CHILDREN).
[[nodiscard]] double reaped_children_cpu_s();
/// User plus system CPU seconds of the live direct children (wire processes).
[[nodiscard]] double live_children_cpu_s();
/// Number of live direct children.
[[nodiscard]] int live_children();
/// Resets this process's peak resident set (VmHWM) to its current size.
void reset_peak_rss();
/// Peak resident set of this process in MiB since the last reset.
[[nodiscard]] double peak_rss_mb();

/// Aggregate /proc/stat CPU counters, for the steal share over an interval.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();
[[nodiscard]] double steal_share(const CpuTicks& from, const CpuTicks& to);

/// Filesystem type name of `path` ("ext4", "tmpfs", "overlay", ...).
[[nodiscard]] std::string filesystem_of(const std::string& path);

[[nodiscard]] double seconds_since(am::support::TimePoint start);

}  // namespace perfbench
