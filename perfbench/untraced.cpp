// End-to-end measurement: episodes of the real solver (AsgdSolver,
// AsagaSolver, ScheduledSgdSolver), each set up from scratch, until the
// run's time is up. Every metric is a median over the run's episodes.

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <random>

#include "report.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using am::support::Clock;

constexpr std::size_t kMinEpisodes = 3;
/// Host steal share up to which an episode counts as undisturbed: two
/// 10 ms ticks of steal in a 0.2 s episode on 4 vCPUs read 2.5 %.
constexpr double kCalmSteal = 0.03;

bool is_sync(const WorkloadSpec& spec) { return spec.solver == Solver::kScheduledSgd; }

}  // namespace

void add_setup_metrics(const std::vector<Episode>& episodes, RunOutcome& out, bool per_layer) {
  std::vector<double> total, data, tune, start;
  for (const Episode& ep : episodes) {
    total.push_back(ep.data_s + ep.tune_s + ep.cluster_start_s);
    data.push_back(ep.data_s);
    tune.push_back(ep.tune_s);
    start.push_back(ep.cluster_start_s);
  }
  if (per_layer) {
    out.add("setup.data_s", median(data), "s");
    out.add("setup.tune_s", median(tune), "s");
    out.add("setup.cluster_start_s", median(start), "s");
  } else {
    out.add("setup_s", median(total), "s");
  }
  out.note("setup_s", "median of " + std::to_string(total.size()) + " episode set-ups: " +
                          fmt(median(total)) + " (data " + fmt(median(data)) + ", tune " +
                          fmt(median(tune)) + ", cluster start " + fmt(median(start)) + ")");
}

void sync_filesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

double fresh_cluster(const RunContext& ctx, Setup& setup) {
  // Stopping the old cluster first reaps its wire processes, so no two
  // clusters ever share the cores.
  setup.cluster.reset();
  const auto start = Clock::now();
  setup.cluster =
      std::make_unique<am::engine::Cluster>(cluster_config(*ctx.spec, ctx.worker_binary));
  return seconds_since(start);
}

Episode run_episode(const RunContext& ctx, Setup& setup, int index, RunOutcome& out) {
  const WorkloadSpec& spec = *ctx.spec;
  const std::uint64_t seed = episode_seed(ctx.seed, index);
  // Every set-up starts from the same state: the previous episode's cluster
  // stopped and the allocator's free memory returned to the system.
  setup.cluster.reset();
  ::malloc_trim(0);
  setup.inputs = make_inputs(spec, seed);
  const am::linalg::DenseVector reference =
      is_sync(spec) ? reference_model(spec, setup.inputs, seed) : am::linalg::DenseVector();
  const std::string tier_dir = ctx.workdir + "/tier-" + std::to_string(index);
  const am::optim::SolverConfig config = solver_config(spec, setup.inputs, seed, tier_dir);
  if (spec.disk) {
    // Start from a filesystem with nothing of the previous episode left to
    // write back, so one episode's blob churn is not paid by the next.
    sync_filesystem(ctx.workdir);
    fs::create_directories(tier_dir);
    if (index == 0) out.note("tier filesystem", filesystem_of(tier_dir) + ", fsync off");
  }
  // A fresh cluster per episode: the broadcast store and worker caches keep
  // what a finished run left unpruned, which on the history workload grows
  // by hundreds of MiB per episode.
  const double cluster_start_s = fresh_cluster(ctx, setup);

  // Every episode starts like a fresh application: the allocator's free
  // memory goes back to the system, so the episode faults in what it uses
  // and its peak resident set is its own footprint.
  reset_peak_rss();
  const CpuTicks ticks0 = read_cpu_ticks();
  const double cpu0 = self_cpu_s() + live_children_cpu_s();
  am::optim::RunResult result =
      run_solver(spec, *setup.cluster, setup.inputs.workload, config);
  const double cpu1 = self_cpu_s() + live_children_cpu_s();

  Episode ep;
  ep.data_s = setup.inputs.data_s;
  ep.tune_s = setup.inputs.tune_s;
  ep.cluster_start_s = cluster_start_s;
  ep.wall_s = result.wall_ms / 1e3;
  ep.cpu_s = cpu1 - cpu0;
  ep.updates = result.updates;
  const am::engine::ClusterMetrics& m = setup.cluster->metrics();
  ep.failed = m.tasks_failed.load();
  ep.attempted = m.tasks_completed.load() + ep.failed;
  ep.final_error = result.final_error();
  if (auto hit = reach_target(result.trace, spec.target); hit.has_value()) {
    ep.reached_target = true;
    ep.time_to_target_s = hit->time_s;
    ep.updates_to_target = hit->updates;
  } else {
    ep.time_to_target_s = ep.wall_s;
    ep.updates_to_target = static_cast<double>(ep.updates);
  }
  const am::support::Histogram waits = m.total_wait_histogram();
  ep.wait_p50_us = interpolated_quantile_ns(waits, 0.50) / 1e3;
  ep.wait_p99_us = interpolated_quantile_ns(waits, 0.99) / 1e3;
  ep.wait_samples = waits.count();

  ep.steal = steal_share(ticks0, read_cpu_ticks());
  ep.peak_rss_mb = peak_rss_mb();
  const bool finished = result.updates == spec.budget && std::isfinite(ep.final_error);
  if (is_sync(spec)) {
    ep.correct = finished && max_abs_diff(result.final_w, reference) == 0.0;
  } else {
    ep.correct = finished && ep.final_error <= spec.error_ceiling;
  }
  if (spec.disk) {
    std::error_code ec;
    fs::remove_all(tier_dir, ec);
  }
  return ep;
}

RunOutcome run_untraced(const RunContext& ctx) {
  const WorkloadSpec& spec = *ctx.spec;
  RunOutcome out;
  Setup setup;
  std::vector<Episode> episodes;
  const auto start = Clock::now();
  while (episodes.size() < kMinEpisodes ||
         seconds_since(start) < ctx.seconds) {
    episodes.push_back(run_episode(ctx, setup, static_cast<int>(episodes.size()), out));
  }
  out.note("live wire processes", std::to_string(live_children()));
  setup.cluster.reset();  // stops and reaps the wire processes

  for (const Episode& ep : episodes) {
    out.attempted += ep.attempted;
    // A failed check counts every task of its episode as failed.
    out.failed += ep.correct ? ep.failed : ep.attempted;
    out.correct = out.correct && ep.correct;
  }
  add_setup_metrics(episodes, out, /*per_layer=*/false);

  // Host steal comes in bursts of about a second and slows every wall-clock
  // and CPU figure several-fold, so the timing metrics are medians over the
  // episodes that read at most kCalmSteal, or over the least-stolen third
  // when fewer are that calm. Steal is read in 10 ms ticks, so most short
  // episodes read none; ties are broken in an order shuffled by the run's
  // seed, so the third does not favour early episodes. Convergence and
  // memory do not depend on steal and are medians over every episode.
  std::vector<const Episode*> calm;
  for (const Episode& ep : episodes) calm.push_back(&ep);
  std::shuffle(calm.begin(), calm.end(), std::mt19937_64(ctx.seed));
  std::stable_sort(calm.begin(), calm.end(),
                   [](const Episode* a, const Episode* b) { return a->steal < b->steal; });
  const auto calm_count = static_cast<std::size_t>(std::count_if(
      calm.begin(), calm.end(), [](const Episode* ep) { return ep->steal <= kCalmSteal; }));
  calm.resize(std::max({std::min(kMinEpisodes, calm.size()), (calm.size() + 2) / 3, calm_count}));

  std::vector<double> rate, cpu, ttt, p50, p99, steal;
  for (const Episode* ep : calm) {
    rate.push_back(static_cast<double>(ep->updates) / ep->wall_s);
    cpu.push_back(ep->cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, ep->updates)));
    ttt.push_back(ep->time_to_target_s);
    p50.push_back(ep->wait_p50_us);
    p99.push_back(ep->wait_p99_us);
    steal.push_back(ep->steal);
  }
  std::vector<double> utt, err, rss;
  std::uint64_t wait_samples = 0;
  int reached = 0;
  for (const Episode& ep : episodes) {
    utt.push_back(ep.updates_to_target);
    err.push_back(ep.final_error);
    rss.push_back(ep.peak_rss_mb);
    wait_samples += ep.wait_samples;
    reached += ep.reached_target ? 1 : 0;
  }
  out.add("updates_per_s", median(rate), "1/s");
  out.add("cpu_us_per_update", median(cpu), "us");
  out.add("updates_to_target", median(utt), "count");
  out.add("final_error", median(err), "objective");
  out.add("worker_wait_p50_us", median(p50), "us");
  out.add("peak_rss_mb", median(rss), "MiB");
  // Diagnostics: these did not repeat within a tenth across seeds (time to
  // target compounds the wall-clock rate with the seed's convergence; the
  // wait tail follows host scheduling hiccups).
  out.note("time_to_target_s", fmt(median(ttt)));
  out.note("worker_wait_p99_us", fmt(median(p99)));

  out.note("episodes", std::to_string(episodes.size()) + " x " +
                           std::to_string(spec.budget) + " updates, target " +
                           fmt(spec.target) + " reached in " + std::to_string(reached) +
                           "; timing from the " + std::to_string(calm.size()) +
                           " with at most " + fmt(quantile(steal, 1.0)) + " steal");
  out.note("worker wait samples", std::to_string(wait_samples));
  out.note("updates_per_s range", fmt(quantile(rate, 0.0)) + " .. " + fmt(quantile(rate, 1.0)));
  out.note("cpu_us_per_update range", fmt(quantile(cpu, 0.0)) + " .. " + fmt(quantile(cpu, 1.0)));
  out.note("task_failure_share",
           fmt(out.attempted == 0 ? 0.0
                                  : static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)) +
               " (" + std::to_string(out.failed) + " of " + std::to_string(out.attempted) +
               " task attempts)");
  return out;
}

}  // namespace perfbench
