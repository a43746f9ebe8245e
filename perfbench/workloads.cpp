#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

namespace {

using am::support::Clock;

// Budgets and targets are fixed per workload; each target sits near the
// middle of its episode, so updates-to-target moves when convergence does.
// Ceilings sit well above every seed's final objective.
const std::vector<WorkloadSpec> kWorkloads = [] {
  std::vector<WorkloadSpec> out;

  WorkloadSpec asgd;
  asgd.name = "asgd-sparse";
  asgd.solver = Solver::kAsgd;
  asgd.workers = 3;
  asgd.partitions = 12;
  asgd.batch_fraction = 0.05;
  asgd.budget = 24'000;
  asgd.eval_points = 200;
  asgd.step_scale = 0.5;
  asgd.target = 0.004;
  asgd.error_ceiling = 0.01;
  asgd.probe = "sgd-durable";
  out.push_back(asgd);

  WorkloadSpec asaga;
  asaga.name = "asaga-history";
  asaga.solver = Solver::kAsaga;
  asaga.workers = 3;
  asaga.partitions = 12;
  asaga.batch_fraction = 0.02;
  asaga.budget = 2'000;
  asaga.eval_points = 200;
  asaga.step_scale = 8.0;
  asaga.target = 0.33;
  asaga.error_ceiling = 0.6;
  asaga.probe = "sgd-uds-dense";
  out.push_back(asaga);

  WorkloadSpec uds;
  uds.name = "sgd-uds-dense";
  uds.solver = Solver::kScheduledSgd;
  uds.dense_data = true;
  uds.backend = am::transport::Backend::kUnixSocket;
  uds.workers = 2;
  uds.partitions = 2;
  uds.batch_fraction = 0.1;
  uds.budget = 1'000;
  uds.eval_points = 50;
  uds.step_scale = 0.05;
  uds.target = 0.027;
  out.push_back(uds);

  WorkloadSpec durable;
  durable.name = "sgd-durable";
  durable.solver = Solver::kScheduledSgd;
  durable.workers = 3;
  durable.partitions = 3;
  durable.batch_fraction = 0.05;
  durable.budget = 600;
  durable.eval_points = 100;
  durable.disk = true;
  durable.checkpoint_every = 50;
  durable.step_scale = 0.5;
  durable.target = 0.011;
  out.push_back(durable);
  return out;
}();

// Per-sample smoothness of least squares: the mean squared row norm.
double sample_smoothness(const am::data::Dataset& dataset) {
  double total = 0.0;
  for (std::size_t r = 0; r < dataset.rows(); ++r) total += dataset.row(r).norm_squared();
  return total / static_cast<double>(std::max<std::size_t>(1, dataset.rows()));
}

// Smoothness of the full least-squares objective: L = lambda_max(X^T X / n),
// estimated by power iteration from a fixed start vector.
double smoothness(const am::data::Dataset& dataset) {
  const std::size_t dim = dataset.cols();
  am::linalg::DenseVector v(dim);
  for (std::size_t i = 0; i < dim; ++i) v[i] = 1.0 / std::sqrt(static_cast<double>(dim));
  double lambda = 0.0;
  for (int it = 0; it < 30; ++it) {
    am::linalg::DenseVector next(dim);
    for (std::size_t r = 0; r < dataset.rows(); ++r) {
      const am::data::RowRef row = dataset.row(r);
      row.axpy_into(row.dot(v.span()), next.span());
    }
    double norm_sq = 0.0;
    for (std::size_t i = 0; i < dim; ++i) norm_sq += next[i] * next[i];
    const double norm = std::sqrt(norm_sq);
    if (!(norm > 0.0)) break;
    lambda = norm / static_cast<double>(dataset.rows());
    for (std::size_t i = 0; i < dim; ++i) v[i] = next[i] / norm;
  }
  return lambda;
}

/// Calls fn(pid) for every live direct child of this process.
template <typename Fn>
void for_each_child(Fn&& fn) {
  const std::string self = std::to_string(::getpid());
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    std::ifstream in(std::string("/proc/") + entry->d_name + "/stat");
    std::string line;
    if (!std::getline(in, line)) continue;
    // The parent pid is the second field after the parenthesised command.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(line.substr(close + 2));
    std::string state;
    std::string ppid;
    fields >> state >> ppid;
    if (ppid == self) fn(std::string(entry->d_name));
  }
  ::closedir(dir);
}

double rusage_cpu_s(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

am::engine::Cluster::Config cluster_config(const WorkloadSpec& spec,
                                           const std::string& worker_binary) {
  am::engine::Cluster::Config config;
  config.num_workers = spec.workers;
  config.cores_per_worker = 1;
  // Zero modeled network: no latency, no bandwidth charge, time scale 0.
  config.network.latency_ms = 0.0;
  config.network.time_scale = 0.0;
  config.delay = nullptr;
  config.transport.backend = spec.backend;
  config.transport.worker_binary = worker_binary;
  return config;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs inputs;
  auto start = Clock::now();
  am::data::synthetic::Problem problem = spec.dense_data
                                             ? am::data::synthetic::epsilon_like(seed)
                                             : am::data::synthetic::rcv1_like(seed);
  auto dataset =
      std::make_shared<const am::data::Dataset>(std::move(problem.dataset));
  auto loss = std::make_shared<const am::optim::LeastSquaresLoss>();
  inputs.workload = am::optim::Workload::create(dataset, spec.partitions, loss);
  inputs.data_s = seconds_since(start);

  start = Clock::now();
  // SAGA's step is bounded by the per-sample smoothness, SGD's decaying
  // step by the full objective's.
  const double smooth = spec.solver == Solver::kAsaga ? sample_smoothness(*dataset)
                                                      : smoothness(*dataset);
  inputs.step = spec.step_scale / smooth;
  inputs.tune_s = seconds_since(start);
  return inputs;
}

std::uint64_t episode_seed(std::uint64_t run_seed, int index) {
  return run_seed * 1'000'003 + static_cast<std::uint64_t>(index);
}

am::optim::SolverConfig solver_config(const WorkloadSpec& spec, const Inputs& inputs,
                                      std::uint64_t seed, const std::string& tier_dir) {
  am::optim::SolverConfig config;
  config.updates = spec.budget;
  config.batch_fraction = spec.batch_fraction;
  config.step = spec.solver == Solver::kAsaga ? am::optim::constant_step(inputs.step)
                                              : am::optim::inv_sqrt_step(inputs.step);
  // One asynchronous round (P results) applies the step of one synchronous
  // iteration, as in the paper-figure benches.
  config.async_step_scale = 1.0 / static_cast<double>(spec.partitions);
  config.seed = seed;
  config.eval_every = std::max<std::uint64_t>(1, spec.budget / spec.eval_points);
  // Zero modeled service time: CostModel clamps a derived floor to
  // min_service_ms, so all three knobs must be zero.
  config.service_floor_ms = 0.0;
  config.cost.ms_per_mb = 0.0;
  config.cost.min_service_ms = 0.0;
  if (spec.disk) {
    config.store_config.disk.enabled = true;
    config.store_config.disk.dir = tier_dir;
    // fsync would time the host's disk, not the program.
    config.store_config.disk.fsync = false;
    config.checkpoint_every = spec.checkpoint_every;
    config.checkpoint_path = tier_dir + "/checkpoint";
  }
  return config;
}

am::optim::RunResult run_solver(const WorkloadSpec& spec, am::engine::Cluster& cluster,
                                const am::optim::Workload& workload,
                                const am::optim::SolverConfig& config) {
  switch (spec.solver) {
    case Solver::kAsgd: return am::optim::AsgdSolver{}.run(cluster, workload, config);
    case Solver::kAsaga: return am::optim::AsagaSolver{}.run(cluster, workload, config);
    case Solver::kScheduledSgd:
      return am::optim::ScheduledSgdSolver{}.run(cluster, workload, config);
  }
  return {};
}

am::linalg::DenseVector reference_model(const WorkloadSpec& spec, const Inputs& inputs,
                                        std::uint64_t seed) {
  WorkloadSpec plain = spec;
  plain.backend = am::transport::Backend::kInProcess;
  plain.disk = false;
  am::engine::Cluster cluster(cluster_config(plain, ""));
  const am::optim::SolverConfig config = solver_config(plain, inputs, seed, "");
  return am::optim::ScheduledSgdSolver{}.run(cluster, inputs.workload, config).final_w;
}

double max_abs_diff(const am::linalg::DenseVector& a, const am::linalg::DenseVector& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, d);
  }
  return worst;
}

double interpolated_quantile_ns(const am::support::Histogram& hist, double q) {
  if (hist.count() == 0) return 0.0;
  // Bucket i holds [2^i, 2^(i+1)), so count_below at the bucket edges gives
  // exact cumulative counts.
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(hist.count());
  double lo = 0.0;
  double below_lo = 0.0;
  for (int i = 0; i < 64; ++i) {
    const double hi = std::exp2(i + 1);
    const double below_hi = static_cast<double>(hist.count_below(hi));
    if (below_hi >= rank && below_hi > below_lo) {
      const double value = lo + (hi - lo) * (rank - below_lo) / (below_hi - below_lo);
      return std::clamp(value, hist.min_ns(), hist.max_ns());
    }
    lo = hi;
    below_lo = below_hi;
  }
  return hist.max_ns();
}

std::optional<TargetHit> reach_target(const am::metrics::Trace& trace, double target) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const am::metrics::TracePoint& p = trace[i];
    if (!(p.error <= target)) continue;
    TargetHit hit{p.time_ms / 1e3, static_cast<double>(p.update)};
    if (i == 0 || !(p.error > 0.0)) return hit;
    const am::metrics::TracePoint& prev = trace[i - 1];
    const double span = std::log(prev.error) - std::log(p.error);
    if (!(span > 0.0) || !std::isfinite(span)) return hit;
    const double frac = (std::log(prev.error) - std::log(target)) / span;
    hit.time_s = (prev.time_ms + frac * (p.time_ms - prev.time_ms)) / 1e3;
    hit.updates = static_cast<double>(prev.update) +
                  frac * static_cast<double>(p.update - prev.update);
    return hit;
  }
  return std::nullopt;
}

double self_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double reaped_children_cpu_s() { return rusage_cpu_s(RUSAGE_CHILDREN); }

double live_children_cpu_s() {
  // schedstat's first field is the nanoseconds spent on a CPU; /proc/<pid>/stat
  // counts only whole clock ticks.
  std::uint64_t ns = 0;
  for_each_child([&](const std::string& pid) {
    std::ifstream in("/proc/" + pid + "/schedstat");
    std::uint64_t run_ns = 0;
    if (in >> run_ns) ns += run_ns;
  });
  return static_cast<double>(ns) / 1e9;
}

int live_children() {
  int n = 0;
  for_each_child([&](const std::string&) { ++n; });
  return n;
}

void reset_peak_rss() {
  // Return freed heap to the system first, so the peak starts from what is
  // live rather than from what earlier episodes left cached in the allocator.
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;  // kB
    }
  }
  return 0.0;
}

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": the all-CPU line comes first
  CpuTicks ticks;
  std::uint64_t value = 0;
  for (int field = 0; field < 8 && (in >> value); ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;  // user nice system idle iowait irq softirq steal
  }
  return ticks;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

std::string filesystem_of(const std::string& path) {
  struct statfs fs{};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: break;
  }
  std::ostringstream os;
  os << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
  return os.str();
}

double seconds_since(am::support::TimePoint start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace perfbench
