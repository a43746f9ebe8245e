// Traced run: the per-layer breakdown.
//
// The mirrors below repeat the three solver loops (optim/asgd.cpp,
// optim/asaga.cpp, optim/sgd.cpp ScheduledSgdSolver) line for line against
// the Table-1 API, with the same task bodies and helpers, and put a span
// around every call into a layer: publish (ASYNCbroadcast), factory rebuild
// and dispatch (scheduler), collect (ASYNCcollect), the update arithmetic,
// trace snapshots, history GC and checkpoints. A wrapped task function
// records the worker-side span. Spans of one update share its index. They
// stay in memory until their episode is aggregated, and the first traced
// episode's until the run ends, when they are written as a Chrome trace.
// Worker-internal layers (model resolve, queue wait, service padding) come
// from the engine's opt-in span telemetry.
//
// Traced and untraced episodes alternate, so trace.overhead_share compares
// the two under the same conditions. Nothing here feeds the end-to-end
// metrics.

#include "traced.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "optim/solver_util.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace detail = am::optim::detail;
using am::support::Clock;

enum class Layer : std::uint8_t {
  kUpdate,
  kPublish,
  kVersion,
  kFactory,
  kDispatch,
  kCollect,
  kApply,
  kSnapshot,
  kGc,
  kCheckpoint,
  kTask,
};
constexpr std::size_t kLayers = 11;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kUpdate: return "update";
    case Layer::kPublish: return "core.publish";
    case Layer::kVersion: return "core.advance_version";
    case Layer::kFactory: return "core.factory";
    case Layer::kDispatch: return "core.dispatch";
    case Layer::kCollect: return "core.collect";
    case Layer::kApply: return "optim.apply";
    case Layer::kSnapshot: return "metrics.snapshot";
    case Layer::kGc: return "core.gc";
    case Layer::kCheckpoint: return "optim.checkpoint";
    case Layer::kTask: return "optim.task";
  }
  return "unknown";
}

/// Events written to the Chrome trace file: the first updates of the first
/// traced episode.
constexpr std::size_t kChromeSpanCap = 60'000;
/// Updates of the serial run that checks a mirror against its solver.
constexpr std::uint64_t kMirrorCheckUpdates = 2'000;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Driver spans: the update index. Task spans: (partition, seq) until the
  /// driver collects the result, then the index of the update it feeds.
  std::uint64_t update = 0;
  std::int32_t tid = 0;  ///< 0 = driver, 1 + w = worker w's executor
  Layer layer = Layer::kUpdate;

  [[nodiscard]] double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

std::uint64_t task_key(int partition, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(partition) << 40) | seq;
}

class SpanRecorder {
 public:
  SpanRecorder(int workers, int partitions)
      : workers_(static_cast<std::size_t>(workers)),
        task_end_(static_cast<std::size_t>(partitions)) {
    driver_.reserve(1 << 20);
  }

  void driver(Layer layer, std::uint64_t update, std::int64_t start, std::int64_t end) {
    driver_.push_back({start, end, update, 0, layer});
  }

  /// Worker side: one executor thread per worker, but a late task of a
  /// finished episode may still land while the driver reads, hence the lock.
  void task(int worker, int partition, std::uint64_t seq, std::int64_t start,
            std::int64_t end) {
    WorkerSpans& ws = workers_.at(static_cast<std::size_t>(worker));
    {
      std::lock_guard lock(ws.mutex);
      ws.spans.push_back({start, end, task_key(partition, seq), worker + 1, Layer::kTask});
    }
    task_end_.at(static_cast<std::size_t>(partition)).store(end, std::memory_order_release);
  }

  /// Driver side, right after collecting the result of (partition, seq):
  /// links the task span to `update` and returns task return -> collect.
  double on_collect(int partition, std::uint64_t seq, std::uint64_t update) {
    links_.emplace_back(task_key(partition, seq), update);
    const std::int64_t end =
        task_end_.at(static_cast<std::size_t>(partition)).load(std::memory_order_acquire);
    return static_cast<double>(now_ns() - end);
  }

  /// Wraps a task body so its execution is recorded as an optim.task span.
  std::shared_ptr<const am::engine::TaskFn> wrap(
      std::shared_ptr<const am::engine::TaskFn> inner) {
    return std::make_shared<const am::engine::TaskFn>(
        [this, inner = std::move(inner)](am::engine::TaskContext& ctx) {
          const std::int64_t start = now_ns();
          auto out = (*inner)(ctx);
          task(ctx.worker, ctx.partition, ctx.seq, start, now_ns());
          return out;
        });
  }

  [[nodiscard]] std::size_t driver_size() const { return driver_.size(); }
  /// Drops driver spans from index `keep` on, once they are aggregated.
  void truncate_driver(std::size_t keep) { driver_.resize(std::min(keep, driver_.size())); }
  [[nodiscard]] const std::vector<Span>& driver_spans() const { return driver_; }

  /// Task spans recorded so far, linked to their updates; unlinked spans
  /// (results never collected) keep update = ~0.
  [[nodiscard]] std::vector<Span> task_spans() {
    const std::unordered_map<std::uint64_t, std::uint64_t> links(links_.begin(),
                                                                  links_.end());
    std::vector<Span> out;
    for (WorkerSpans& ws : workers_) {
      std::lock_guard lock(ws.mutex);
      for (Span s : ws.spans) {
        const auto it = links.find(s.update);
        s.update = it == links.end() ? ~std::uint64_t{0} : it->second;
        out.push_back(s);
      }
    }
    return out;
  }

  void clear_tasks() {
    for (WorkerSpans& ws : workers_) {
      std::lock_guard lock(ws.mutex);
      ws.spans.clear();
    }
    links_.clear();
  }

 private:
  struct WorkerSpans {
    std::mutex mutex;
    std::vector<Span> spans;
  };
  std::vector<Span> driver_;
  std::vector<WorkerSpans> workers_;
  std::vector<std::atomic<std::int64_t>> task_end_;
  /// (task key, update) per collected result, resolved after the episode.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> links_;
};

/// Times one driver-side call into a layer.
class Scope {
 public:
  Scope(SpanRecorder& rec, Layer layer, std::uint64_t update)
      : rec_(rec), layer_(layer), update_(update), start_(now_ns()) {}
  ~Scope() { rec_.driver(layer_, update_, start_, now_ns()); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  Layer layer_;
  std::uint64_t update_;
  std::int64_t start_;
};

/// What one traced episode measured besides its spans.
struct TracedEpisode {
  bool disk = false;  ///< the disk tier was on
  bool wire = false;  ///< a socket backend carried the frames
  double wall_s = 0.0;
  std::uint64_t updates = 0;
  std::uint64_t rounds = 0;
  double round_wait_ns = 0.0;
  std::vector<double> staleness;
  std::vector<double> result_path_ns;
  std::size_t retained_max = 0;
  /// Disk-tier I/O ns sampled at the end of each quarter of the episode.
  std::array<std::uint64_t, 4> disk_ns_at_quarter{};
  double wire_cpu_s = 0.0;
  std::uint64_t retries = 0;
  bool correct = false;
  double final_error = 0.0;
  double modeled_service_ms = 0.0;
  std::shared_ptr<const am::telemetry::TelemetryReport> telemetry;
  // Cluster counters at the end of the episode (reset at its start).
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_fetches = 0;
  std::uint64_t base_bytes = 0;
  std::uint64_t delta_bytes = 0;
  std::uint64_t disk_io_ns = 0;
  std::uint64_t blob_writes = 0;
  std::uint64_t blob_write_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_frames = 0;
  double modeled_network_ms = 0.0;
};

std::uint64_t disk_io_ns(const am::engine::ClusterMetrics& m) {
  return m.disk.write_ns.load() + m.disk.read_ns.load();
}

void read_counters(am::engine::Cluster& cluster, TracedEpisode& ep) {
  const am::engine::ClusterMetrics& m = cluster.metrics();
  ep.tasks_completed = m.tasks_completed.load();
  ep.tasks_failed = m.tasks_failed.load();
  ep.cache_hits = m.broadcast_hits.load();
  ep.cache_fetches = m.broadcast_fetches.load();
  ep.base_bytes = m.broadcast_base_bytes.load();
  ep.delta_bytes = m.broadcast_delta_bytes.load();
  ep.disk_io_ns = disk_io_ns(m);
  ep.blob_writes = m.disk.blob_writes.load();
  ep.blob_write_bytes = m.disk.blob_write_bytes.load();
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  for (std::size_t ch = 0; ch < am::engine::kNumWireChannels; ++ch) {
    const auto& w = m.wire(static_cast<am::engine::WireChannel>(ch));
    bytes += w.bytes_sent.load() + w.bytes_received.load();
    frames += w.frames.load();
  }
  // The in-process channel counts modeled bytes; only a real wire is
  // transport work, and only its modeled charge would be a delay.
  const bool wire = cluster.transport().backend() != am::transport::Backend::kInProcess;
  ep.wire_bytes = wire ? bytes : 0;
  ep.wire_frames = wire ? frames : 0;
  ep.modeled_network_ms = cluster.network().transfer_ms(bytes);
}

/// Samples the per-update observations every mirror shares.
class EpisodeProbe {
 public:
  EpisodeProbe(am::engine::Cluster& cluster, std::uint64_t budget, TracedEpisode& ep)
      : cluster_(cluster), budget_(budget), ep_(ep) {}

  void after_update(std::uint64_t updates, am::core::AsyncContext& ac) {
    ep_.retained_max = std::max(ep_.retained_max, ac.history().size());
    for (std::size_t q = 0; q < 4; ++q) {
      if (updates == budget_ * (q + 1) / 4) {
        ep_.disk_ns_at_quarter[q] = disk_io_ns(cluster_.metrics());
      }
    }
  }

 private:
  am::engine::Cluster& cluster_;
  std::uint64_t budget_;
  TracedEpisode& ep_;
};

double modeled_service_ms(const WorkloadSpec& spec, const am::optim::Workload& workload,
                          const am::optim::SolverConfig& config) {
  return config.service_floor_ms > 0.0
             ? config.service_floor_ms
             : config.cost.task_service_ms(*workload.dataset, workload.num_partitions(),
                                           config.batch_fraction,
                                           spec.solver == Solver::kAsaga);
}

// ---- mirrors ---------------------------------------------------------------

/// AsgdSolver::run, line for line, with spans.
am::linalg::DenseVector mirror_asgd(am::engine::Cluster& cluster,
                                    const am::optim::Workload& workload,
                                    const am::optim::SolverConfig& config,
                                    SpanRecorder& rec, TracedEpisode& ep) {
  const std::size_t dim = workload.dim();
  const double service_ms = ep.modeled_service_ms;
  const double default_scale = config.staleness_adaptive_lr
                                   ? 1.0
                                   : 1.0 / static_cast<double>(cluster.num_workers());
  const double step_scale = config.async_step_scale.value_or(default_scale);
  const am::linalg::GradVectorConfig grad_cfg = detail::grad_config(workload, config);
  const auto support_table = detail::shard_support_table(workload, config);

  am::core::AsyncContext ac(cluster, workload.num_partitions(), config.store_config);
  ac.scheduler().set_policy(detail::scheduler_policy(workload, config));
  am::core::SubmitOptions opts;
  opts.service_floor_ms = service_ms;
  opts.rng_seed = config.seed;

  am::linalg::DenseVector w(dim);
  am::core::HistoryBroadcast w_br;
  {
    Scope s(rec, Layer::kPublish, 0);
    w_br = ac.async_broadcast(w);
  }
  auto rebuild_factory = [&] {
    return ac.make_fn_factory(rec.wrap(detail::grad_task_fn(workload, config, w_br, grad_cfg,
                                                            config.batch_fraction,
                                                            support_table)),
                              opts);
  };
  am::core::AsyncScheduler::TaskFactory factory;
  {
    Scope s(rec, Layer::kFactory, 0);
    factory = rebuild_factory();
  }
  am::metrics::TraceRecorder recorder(config.eval_every);
  recorder.reserve_for(config.updates);
  am::support::Stopwatch watch;
  recorder.snapshot(0, 0.0, w);
  {
    Scope s(rec, Layer::kDispatch, 0);
    detail::dispatch_live(ac, config.barrier, factory);
  }
  EpisodeProbe probe(cluster, config.updates, ep);

  std::uint64_t updates = 0;
  while (updates < config.updates) {
    const std::uint64_t u = updates + 1;
    Scope update_span(rec, Layer::kUpdate, u);
    std::optional<am::core::TaggedResult> collected;
    {
      Scope s(rec, Layer::kCollect, u);
      collected = ac.collect(&factory);
    }
    if (!collected.has_value()) break;
    ep.result_path_ns.push_back(
        rec.on_collect(collected->result.partition, collected->result.seq, u));
    ep.staleness.push_back(static_cast<double>(collected->staleness));
    {
      Scope s(rec, Layer::kApply, u);
      const am::optim::GradCount& g = collected->result.payload.get<am::optim::GradCount>();
      if (g.count > 0) {
        const std::uint64_t round =
            updates / static_cast<std::uint64_t>(std::max(1, workload.num_partitions()));
        double lr = config.step(round) * step_scale;
        if (config.staleness_adaptive_lr) {
          lr /= 1.0 + static_cast<double>(collected->staleness);
        }
        g.grad.scale_into(-lr / static_cast<double>(g.count), w.span());
      }
    }
    ++updates;
    {
      Scope s(rec, Layer::kVersion, u);
      ac.advance_version();
    }
    {
      Scope s(rec, Layer::kPublish, u);
      w_br = ac.async_broadcast(w);
    }
    {
      Scope s(rec, Layer::kFactory, u);
      factory = rebuild_factory();
    }
    {
      Scope s(rec, Layer::kSnapshot, u);
      recorder.maybe_snapshot(updates, watch.elapsed_ms(), w);
    }
    {
      Scope s(rec, Layer::kGc, u);
      detail::maybe_gc_history(ac, config, updates);
    }
    {
      Scope s(rec, Layer::kCheckpoint, u);
      detail::maybe_checkpoint(config, ac, w, updates);
    }
    {
      Scope s(rec, Layer::kDispatch, u);
      detail::dispatch_live(ac, config.barrier, factory);
    }
    probe.after_update(updates, ac);
  }
  ep.wall_s = watch.elapsed_ms() / 1e3;
  ep.updates = updates;
  ep.retries = ac.retries();
  return w;
}

/// AsagaSolver::run, line for line, with spans.
am::linalg::DenseVector mirror_asaga(am::engine::Cluster& cluster,
                                     const am::optim::Workload& workload,
                                     const am::optim::SolverConfig& config,
                                     SpanRecorder& rec, TracedEpisode& ep) {
  const std::size_t dim = workload.dim();
  const std::size_t n = workload.n();
  const double service_ms = ep.modeled_service_ms;
  const double step_scale = config.async_step_scale.value_or(
      1.0 / static_cast<double>(cluster.num_workers()));
  const am::linalg::GradVectorConfig grad_cfg = detail::grad_config(workload, config);
  const auto support_table = detail::shard_support_table(workload, config);

  am::core::AsyncContext ac(cluster, workload.num_partitions(), config.store_config);
  am::core::SchedulerPolicy policy = detail::scheduler_policy(workload, config);
  policy.speculation_factor = 0.0;
  ac.scheduler().set_policy(std::move(policy));
  auto table = std::make_shared<am::core::SampleVersionTable>(n, detail::kNeverVisited);
  am::core::SubmitOptions opts;
  opts.service_floor_ms = service_ms;
  opts.rng_seed = config.seed;

  am::linalg::DenseVector w(dim);
  am::linalg::DenseVector alpha_bar(dim);
  am::core::HistoryBroadcast w_br;
  {
    Scope s(rec, Layer::kPublish, 0);
    w_br = ac.async_broadcast(w);
  }
  auto rebuild_factory = [&] {
    return ac.make_fn_factory(
        rec.wrap(detail::saga_task_fn(workload, config, w_br, table, grad_cfg,
                                      config.batch_fraction, support_table)),
        opts);
  };
  am::core::AsyncScheduler::TaskFactory factory;
  {
    Scope s(rec, Layer::kFactory, 0);
    factory = rebuild_factory();
  }
  am::metrics::TraceRecorder recorder(config.eval_every);
  recorder.reserve_for(config.updates);
  am::support::Stopwatch watch;
  recorder.snapshot(0, 0.0, w);
  {
    Scope s(rec, Layer::kDispatch, 0);
    detail::dispatch_live(ac, config.barrier, factory);
  }
  EpisodeProbe probe(cluster, config.updates, ep);

  std::uint64_t updates = 0;
  while (updates < config.updates) {
    const std::uint64_t u = updates + 1;
    Scope update_span(rec, Layer::kUpdate, u);
    std::optional<am::core::TaggedResult> collected;
    {
      Scope s(rec, Layer::kCollect, u);
      collected = ac.collect(&factory);
    }
    if (!collected.has_value()) break;
    ep.result_path_ns.push_back(
        rec.on_collect(collected->result.partition, collected->result.seq, u));
    ep.staleness.push_back(static_cast<double>(collected->staleness));
    {
      Scope s(rec, Layer::kApply, u);
      const am::optim::GradHist& g = collected->result.payload.get<am::optim::GradHist>();
      if (g.count > 0) {
        const double inv_b = 1.0 / static_cast<double>(g.count);
        am::linalg::DenseVector direction = alpha_bar;
        g.grad.scale_into(inv_b, direction.span());
        g.hist.scale_into(-inv_b, direction.span());
        am::linalg::axpy(-config.step(updates) * step_scale, direction.span(), w.span());
        const double inv_n = 1.0 / static_cast<double>(n);
        g.grad.scale_into(inv_n, alpha_bar.span());
        g.hist.scale_into(-inv_n, alpha_bar.span());
      }
    }
    ++updates;
    {
      Scope s(rec, Layer::kVersion, u);
      ac.advance_version();
    }
    {
      Scope s(rec, Layer::kPublish, u);
      w_br = ac.async_broadcast(w);
    }
    {
      Scope s(rec, Layer::kFactory, u);
      factory = rebuild_factory();
    }
    {
      Scope s(rec, Layer::kSnapshot, u);
      recorder.maybe_snapshot(updates, watch.elapsed_ms(), w);
    }
    {
      Scope s(rec, Layer::kGc, u);
      detail::maybe_gc_history(ac, config, updates, table->min_version());
    }
    {
      Scope s(rec, Layer::kDispatch, u);
      detail::dispatch_live(ac, config.barrier, factory);
    }
    probe.after_update(updates, ac);
  }
  ep.wall_s = watch.elapsed_ms() / 1e3;
  ep.updates = updates;
  ep.retries = ac.retries();
  return w;
}

/// ScheduledSgdSolver::run (driver-fold combine), line for line, with spans;
/// AsyncContext::sync_round_fn is unrolled so dispatch and collect are timed
/// apart.
am::linalg::DenseVector mirror_scheduled_sgd(am::engine::Cluster& cluster,
                                             const am::optim::Workload& workload,
                                             const am::optim::SolverConfig& config,
                                             SpanRecorder& rec, TracedEpisode& ep) {
  const std::size_t dim = workload.dim();
  const double service_ms = ep.modeled_service_ms;
  const am::linalg::GradVectorConfig grad_cfg = detail::grad_config(workload, config);
  const auto support_table = detail::shard_support_table(workload, config);

  am::core::AsyncContext ac(cluster, workload.num_partitions(), config.store_config);
  ac.scheduler().set_policy(detail::scheduler_policy(workload, config));
  auto comb = detail::grad_comb();
  am::core::SubmitOptions opts;
  opts.service_floor_ms = service_ms;
  opts.rng_seed = config.seed;

  am::linalg::DenseVector w(dim);
  am::metrics::TraceRecorder recorder(config.eval_every);
  recorder.reserve_for(config.updates);
  am::support::Stopwatch watch;
  recorder.snapshot(0, 0.0, w);
  EpisodeProbe probe(cluster, config.updates, ep);

  for (std::uint64_t k = 0; k < config.updates; ++k) {
    const std::uint64_t u = k + 1;
    Scope update_span(rec, Layer::kUpdate, u);
    am::core::HistoryBroadcast w_br;
    {
      Scope s(rec, Layer::kPublish, u);
      w_br = ac.async_broadcast(w);
    }
    am::core::AsyncScheduler::TaskFactory factory;
    {
      Scope s(rec, Layer::kFactory, u);
      factory = ac.make_fn_factory(
          rec.wrap(detail::grad_task_fn(workload, config, w_br, grad_cfg,
                                        config.batch_fraction, support_table)),
          opts);
    }
    int total = 0;
    {
      Scope s(rec, Layer::kDispatch, u);
      total = ac.scheduler().dispatch_all(factory);
    }
    std::vector<am::core::TaggedResult> results;
    results.reserve(static_cast<std::size_t>(total));
    const std::int64_t round_start = now_ns();
    while (static_cast<int>(results.size()) < total) {
      std::optional<am::core::TaggedResult> collected;
      {
        Scope s(rec, Layer::kCollect, u);
        collected = ac.collect(&factory);
      }
      if (!collected.has_value()) break;
      ep.result_path_ns.push_back(
          rec.on_collect(collected->result.partition, collected->result.seq, u));
      ep.staleness.push_back(static_cast<double>(collected->staleness));
      results.push_back(std::move(*collected));
    }
    ep.round_wait_ns += static_cast<double>(now_ns() - round_start);
    ++ep.rounds;
    {
      Scope s(rec, Layer::kApply, u);
      std::sort(results.begin(), results.end(),
                [](const am::core::TaggedResult& a, const am::core::TaggedResult& b) {
                  return a.result.partition < b.result.partition;
                });
      am::optim::GradCount sum{am::linalg::GradVector(grad_cfg)};
      for (am::core::TaggedResult& r : results) {
        sum = comb(std::move(sum), r.result.payload.get<am::optim::GradCount>());
      }
      if (sum.count > 0) {
        sum.grad.scale_into(-config.step(k) / static_cast<double>(sum.count), w.span());
      }
    }
    {
      Scope s(rec, Layer::kVersion, u);
      ac.advance_version();
    }
    {
      Scope s(rec, Layer::kSnapshot, u);
      recorder.maybe_snapshot(k + 1, watch.elapsed_ms(), w);
    }
    {
      Scope s(rec, Layer::kGc, u);
      detail::maybe_gc_history(ac, config, k + 1);
    }
    {
      Scope s(rec, Layer::kCheckpoint, u);
      detail::maybe_checkpoint(config, ac, w, k + 1);
    }
    probe.after_update(k + 1, ac);
    ep.updates = k + 1;
  }
  ep.wall_s = watch.elapsed_ms() / 1e3;
  ep.retries = ac.retries();
  return w;
}

am::linalg::DenseVector run_mirror(Solver solver, am::engine::Cluster& cluster,
                                   const am::optim::Workload& workload,
                                   const am::optim::SolverConfig& config, SpanRecorder& rec,
                                   TracedEpisode& ep) {
  switch (solver) {
    case Solver::kAsgd: return mirror_asgd(cluster, workload, config, rec, ep);
    case Solver::kAsaga: return mirror_asaga(cluster, workload, config, rec, ep);
    case Solver::kScheduledSgd: return mirror_scheduled_sgd(cluster, workload, config, rec, ep);
  }
  return {};
}

/// Checks the workload's mirror against its solver, bit for bit. With one
/// worker and one partition only one task is ever in flight, so even an
/// asynchronous solver's trajectory is deterministic, and a mirror that no
/// longer repeats its solver's loop ends on another model.
bool mirror_matches_solver(const RunContext& ctx, RunOutcome& out) {
  WorkloadSpec serial = *ctx.spec;
  serial.backend = am::transport::Backend::kInProcess;
  serial.disk = false;
  serial.workers = 1;
  serial.partitions = 1;
  serial.budget = std::min<std::uint64_t>(serial.budget, kMirrorCheckUpdates);
  const Inputs inputs = make_inputs(serial, ctx.seed);
  const am::optim::SolverConfig config = solver_config(serial, inputs, ctx.seed, "");
  am::engine::Cluster solver_cluster(cluster_config(serial, ""));
  const am::linalg::DenseVector expected =
      run_solver(serial, solver_cluster, inputs.workload, config).final_w;
  am::engine::Cluster mirror_cluster(cluster_config(serial, ""));
  SpanRecorder rec(serial.workers, serial.partitions);
  TracedEpisode ep;
  ep.modeled_service_ms = modeled_service_ms(serial, inputs.workload, config);
  const am::linalg::DenseVector got =
      run_mirror(serial.solver, mirror_cluster, inputs.workload, config, rec, ep);
  const double diff = max_abs_diff(got, expected);
  // The check's tasks count as attempted, and all as failed when it fails.
  std::uint64_t tasks = 0;
  for (am::engine::Cluster* c : {&solver_cluster, &mirror_cluster}) {
    tasks += c->metrics().tasks_completed.load() + c->metrics().tasks_failed.load();
  }
  out.attempted += tasks;
  out.failed += diff == 0.0 ? 0 : tasks;
  out.note("mirror check", std::string(diff == 0.0 ? "ok" : "FAILED") + " (1 worker x 1 " +
                               "partition, " + std::to_string(serial.budget) +
                               " updates: max |mirror - solver| = " + fmt(diff) + ")");
  return diff == 0.0;
}

/// Traced episode `index`: the same inputs as untraced episode `index`.
TracedEpisode run_traced_episode(const RunContext& ctx, Setup& setup, int index,
                                 SpanRecorder& rec, RunOutcome& out) {
  const WorkloadSpec& spec = *ctx.spec;
  const std::uint64_t seed = episode_seed(ctx.seed, index);
  setup.inputs = make_inputs(spec, seed);
  const am::optim::Workload& workload = setup.inputs.workload;
  const am::linalg::DenseVector reference = spec.solver == Solver::kScheduledSgd
                                                ? reference_model(spec, setup.inputs, seed)
                                                : am::linalg::DenseVector();
  const std::string tier_dir = ctx.workdir + "/traced-tier-" + std::to_string(index);
  am::optim::SolverConfig config = solver_config(spec, setup.inputs, seed, tier_dir);
  config.telemetry.enabled = true;
  if (spec.disk) {
    sync_filesystem(ctx.workdir);
    fs::create_directories(tier_dir);
    if (index == 0) out.note("tier filesystem", filesystem_of(tier_dir) + ", fsync off");
  }
  fresh_cluster(ctx, setup);
  am::engine::Cluster& cluster = *setup.cluster;

  TracedEpisode ep;
  ep.disk = spec.disk;
  ep.wire = spec.backend != am::transport::Backend::kInProcess;
  ep.modeled_service_ms = modeled_service_ms(spec, workload, config);
  detail::reset_run_metrics(cluster.metrics());
  detail::begin_telemetry(cluster, config);
  reset_peak_rss();  // the same fresh-application start as an untraced episode
  const double wire_cpu0 = live_children_cpu_s();
  const am::linalg::DenseVector w = run_mirror(spec.solver, cluster, workload, config, rec, ep);
  ep.wire_cpu_s = live_children_cpu_s() - wire_cpu0;
  am::optim::RunResult sink;
  detail::finish_telemetry(sink, cluster, config);
  ep.telemetry = sink.telemetry;
  read_counters(cluster, ep);

  ep.final_error = am::optim::full_objective(*workload.dataset, *workload.loss, w);
  const bool finished = ep.updates == spec.budget && std::isfinite(ep.final_error);
  ep.correct = finished && (spec.solver == Solver::kScheduledSgd
                                ? max_abs_diff(w, reference) == 0.0
                                : ep.final_error <= spec.error_ceiling);
  if (!ep.correct) {
    out.note(spec.name + " traced episode " + std::to_string(index), "check FAILED");
  }
  if (spec.disk) {
    std::error_code ec;
    fs::remove_all(tier_dir, ec);
  }
  return ep;
}

// ---- reporting -------------------------------------------------------------

double stage_sum_ns(const am::telemetry::TelemetryReport& report, am::telemetry::Stage st) {
  return report.stages.at(static_cast<std::size_t>(st)).sum_ns;
}

/// Writes the spans of the first updates, driver and worker alike, up to
/// kChromeSpanCap events.
void write_chrome_trace(const std::string& path, const std::vector<Span>& driver,
                        const std::vector<Span>& tasks) {
  std::uint64_t last_update = 0;
  for (const Span& s : driver) last_update = std::max(last_update, s.update);
  const double spans_per_update = static_cast<double>(driver.size() + tasks.size()) /
                                  static_cast<double>(std::max<std::uint64_t>(1, last_update));
  const auto cutoff = static_cast<std::uint64_t>(static_cast<double>(kChromeSpanCap) /
                                                 std::max(1.0, spans_per_update));
  std::ofstream os(path);
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  const std::int64_t origin = driver.empty() ? 0 : driver.front().start_ns;
  bool first = true;
  std::size_t written = 0;
  const auto emit = [&](const Span& s) {
    if (s.update > cutoff || written >= kChromeSpanCap) return;
    ++written;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"update\": %llu}}",
                  first ? "" : ",\n", layer_name(s.layer), s.tid == 0 ? "driver" : "worker",
                  static_cast<double>(s.start_ns - origin) / 1e3, s.us(), s.tid,
                  static_cast<unsigned long long>(s.update));
    os << buf;
    first = false;
  };
  for (const Span& s : driver) emit(s);
  for (const Span& s : tasks) emit(s);
  os << "\n]}\n";
}

}  // namespace

RunOutcome run_traced(const RunContext& ctx) {
  const WorkloadSpec& spec = *ctx.spec;
  RunOutcome out;
  // The per-layer figures are only as good as the mirrors' likeness to the
  // solvers, so a mirror that drifted fails the run.
  out.correct = mirror_matches_solver(ctx, out);
  SpanRecorder rec(spec.workers, spec.partitions);
  Setup setup;

  // Alternate untraced and traced episodes until the time is up.
  std::vector<Episode> plain;
  std::vector<TracedEpisode> traced;
  std::vector<Span> chrome_tasks;
  std::size_t chrome_driver_end = 0;
  std::vector<std::array<double, kLayers>> self_us;  // per traced episode
  std::vector<double> driver_share;
  const auto start = Clock::now();
  while (traced.size() < 2 || seconds_since(start) < ctx.seconds) {
    plain.push_back(run_episode(ctx, setup, static_cast<int>(plain.size()), out));
    const std::size_t first_span = rec.driver_size();
    traced.push_back(
        run_traced_episode(ctx, setup, static_cast<int>(traced.size()), rec, out));

    // Self time per layer: an update's self time is its duration minus its
    // layer spans; layer spans and task spans have no children.
    std::array<double, kLayers> self{};
    double layer_ns = 0.0;
    for (std::size_t i = first_span; i < rec.driver_size(); ++i) {
      const Span& s = rec.driver_spans()[i];
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      self[static_cast<std::size_t>(s.layer)] += d;
      if (s.layer == Layer::kUpdate) continue;
      layer_ns += d;
      // The initial publish and dispatch (update 0) precede every update span.
      if (s.update != 0) self[static_cast<std::size_t>(Layer::kUpdate)] -= d;
    }
    std::vector<Span> tasks = rec.task_spans();
    for (const Span& s : tasks) {
      self[static_cast<std::size_t>(Layer::kTask)] += static_cast<double>(s.end_ns - s.start_ns);
    }
    rec.clear_tasks();
    // Traced wall time: from the episode's first span to its last.
    if (rec.driver_size() > first_span) {
      const double span_ns = static_cast<double>(rec.driver_spans().back().end_ns -
                                                 rec.driver_spans()[first_span].start_ns);
      driver_share.push_back(layer_ns / std::max(1.0, span_ns));
    }
    for (double& v : self) v /= 1e3;
    self_us.push_back(self);
    // Only the first traced episode's spans are kept for the Chrome trace;
    // later episodes' spans are dropped once aggregated.
    if (traced.size() == 1) {
      chrome_tasks = std::move(tasks);
      chrome_driver_end = rec.driver_size();
    } else {
      rec.truncate_driver(chrome_driver_end);
    }
  }
  setup.cluster.reset();
  add_setup_metrics(plain, out, /*per_layer=*/true);

  // A layer this workload bypasses is measured through its probe: one traced
  // episode of the probe workload on the same seed.
  std::optional<TracedEpisode> probe;
  if (!spec.probe.empty()) {
    RunContext probe_ctx = ctx;
    probe_ctx.spec = find_workload(spec.probe);
    if (probe_ctx.spec == nullptr) throw std::logic_error("unknown probe " + spec.probe);
    Setup probe_setup;
    SpanRecorder probe_rec(probe_ctx.spec->workers, probe_ctx.spec->partitions);
    probe = run_traced_episode(probe_ctx, probe_setup, 0, probe_rec, out);
    out.note("probe", spec.probe + ", one traced episode of " +
                          std::to_string(probe->updates) + " updates");
  }
  // A layer's figures come from the episodes that exercise it: this
  // workload's traced episodes when it does, else its probe.
  const auto layer_episodes = [&](bool (*exercises)(const TracedEpisode&)) {
    std::vector<const TracedEpisode*> eps;
    for (const TracedEpisode& ep : traced) {
      if (exercises(ep)) eps.push_back(&ep);
    }
    if (eps.empty() && probe.has_value() && exercises(*probe)) eps.push_back(&*probe);
    return eps;
  };

  double disk_updates = 0.0, disk_ns = 0.0, blobs = 0.0, blob_bytes = 0.0;
  std::vector<double> late_over_early;
  for (const TracedEpisode* ep : layer_episodes([](const TracedEpisode& e) { return e.disk; })) {
    disk_updates += static_cast<double>(ep->updates);
    disk_ns += static_cast<double>(ep->disk_io_ns);
    blobs += static_cast<double>(ep->blob_writes);
    blob_bytes += static_cast<double>(ep->blob_write_bytes);
    const auto& q = ep->disk_ns_at_quarter;
    const double early = static_cast<double>(q[0]);
    const double late = static_cast<double>(q[3] - q[2]);
    if (early > 0.0) late_over_early.push_back(late / early);
  }
  disk_updates = std::max(1.0, disk_updates);

  // The transport figures, and the synchronous round wait they feed, come
  // from socket episodes; the result path falls back to the in-process
  // hand-off when there is none.
  const std::vector<const TracedEpisode*> wire_episodes =
      layer_episodes([](const TracedEpisode& e) { return e.wire; });
  double wire_updates = 0.0, wire_bytes = 0.0, frames = 0.0, wire_cpu = 0.0,
         round_wait = 0.0, rounds = 0.0;
  for (const TracedEpisode* ep : wire_episodes) {
    wire_updates += static_cast<double>(ep->updates);
    wire_bytes += static_cast<double>(ep->wire_bytes);
    frames += static_cast<double>(ep->wire_frames);
    wire_cpu += ep->wire_cpu_s;
    round_wait += ep->round_wait_ns;
    rounds += static_cast<double>(ep->rounds);
  }
  wire_updates = std::max(1.0, wire_updates);
  std::vector<double> result_path;
  for (const TracedEpisode* ep : wire_episodes.empty()
                                     ? layer_episodes([](const TracedEpisode&) { return true; })
                                     : wire_episodes) {
    result_path.insert(result_path.end(), ep->result_path_ns.begin(), ep->result_path_ns.end());
  }

  // Totals over traced episodes.
  double updates = 0.0;
  double tasks = 0.0;
  double wall = 0.0;
  std::vector<double> staleness;
  std::size_t retained_max = 0;
  double hits = 0.0, fetches = 0.0, base = 0.0, delta = 0.0, failed = 0.0, retries = 0.0,
         resolve = 0.0, queue_wait = 0.0, pad = 0.0, pad_max = 0.0, records = 0.0,
         modeled_net = 0.0, modeled_service = 0.0;
  // Task accounting and the modeled delays the zero-delay guard checks, over
  // every traced episode, the probe's included.
  const auto account = [&](const TracedEpisode& ep) {
    out.attempted += ep.tasks_completed + ep.tasks_failed;
    out.failed += ep.correct ? ep.tasks_failed : ep.tasks_completed + ep.tasks_failed;
    out.correct = out.correct && ep.correct;
    modeled_net += ep.modeled_network_ms;
    if (!ep.wire && ep.telemetry != nullptr) {
      // In process the result channel is only ever a modeled charge; on a
      // socket it is measured wire time.
      modeled_net += stage_sum_ns(*ep.telemetry, am::telemetry::Stage::kResultChannel) / 1e6;
    }
    modeled_service = std::max(modeled_service, ep.modeled_service_ms);
  };
  std::vector<double> traced_rate;
  for (const TracedEpisode& ep : traced) {
    account(ep);
    updates += static_cast<double>(ep.updates);
    tasks += static_cast<double>(ep.tasks_completed);
    wall += ep.wall_s;
    staleness.insert(staleness.end(), ep.staleness.begin(), ep.staleness.end());
    retained_max = std::max(retained_max, ep.retained_max);
    hits += static_cast<double>(ep.cache_hits);
    fetches += static_cast<double>(ep.cache_fetches);
    base += static_cast<double>(ep.base_bytes);
    delta += static_cast<double>(ep.delta_bytes);
    failed += static_cast<double>(ep.tasks_failed);
    retries += static_cast<double>(ep.retries);
    traced_rate.push_back(static_cast<double>(ep.updates) / std::max(1e-9, ep.wall_s));
    if (ep.telemetry != nullptr) {
      const auto& t = *ep.telemetry;
      records += static_cast<double>(t.records);
      resolve += stage_sum_ns(t, am::telemetry::Stage::kModelFetch);
      queue_wait += stage_sum_ns(t, am::telemetry::Stage::kQueueWait);
      pad += stage_sum_ns(t, am::telemetry::Stage::kServicePad);
      pad_max = std::max(pad_max, t.stages.at(static_cast<std::size_t>(
                                                  am::telemetry::Stage::kServicePad))
                                      .max_ns);
    }
  }
  if (probe.has_value()) account(*probe);
  for (const Episode& ep : plain) {
    out.attempted += ep.attempted;
    out.failed += ep.correct ? ep.failed : ep.attempted;
    out.correct = out.correct && ep.correct;
  }
  std::array<double, kLayers> self_total{};
  for (const auto& s : self_us) {
    for (std::size_t l = 0; l < kLayers; ++l) self_total[l] += s[l];
  }
  const auto per_update = [&](Layer l) { return self_total[static_cast<std::size_t>(l)] / updates; };
  const double per_task = 1.0 / std::max(1.0, tasks);
  const double per_rec = 1.0 / std::max(1.0, records);
  std::vector<double> untraced_rate;
  for (const Episode& ep : plain) untraced_rate.push_back(static_cast<double>(ep.updates) / ep.wall_s);

  out.add("core.publish_us", per_update(Layer::kPublish), "us");
  out.add("core.dispatch_us", per_update(Layer::kFactory) + per_update(Layer::kDispatch), "us");
  out.add("core.collect_wait_us", per_update(Layer::kCollect), "us");
  out.add("core.gc_us", per_update(Layer::kGc), "us");
  out.add("core.staleness_mean", staleness.empty() ? 0.0 : [&] {
    double s = 0.0;
    for (double v : staleness) s += v;
    return s / static_cast<double>(staleness.size());
  }(), "versions");
  out.add("core.staleness_p99", quantile(staleness, 0.99), "versions");
  out.add("core.round_wait_us", rounds > 0.0 ? round_wait / 1e3 / rounds : 0.0, "us");
  out.add("store.resolve_us", resolve / 1e3 * per_rec, "us");
  out.add("store.retained_versions_max", static_cast<double>(retained_max), "count");
  out.add("store.cache_hit_share", hits + fetches > 0.0 ? hits / (hits + fetches) : 0.0, "share");
  out.add("store.base_bytes_per_update", base / updates, "B");
  out.add("store.delta_bytes_per_update", delta / updates, "B");
  out.add("disk.io_us_per_update", disk_ns / 1e3 / disk_updates, "us");
  out.add("disk.blob_writes_per_update", blobs / disk_updates, "count");
  out.add("disk.write_bytes_per_update", blob_bytes / disk_updates, "B");
  out.add("disk.io_us_late_over_early", median(late_over_early), "ratio");
  out.add("transport.wire_bytes_per_update", wire_bytes / wire_updates, "B");
  out.add("transport.frames_per_update", frames / wire_updates, "count");
  out.add("transport.result_path_us", median(result_path) / 1e3, "us");
  out.add("transport.wire_cpu_us_per_update", wire_cpu * 1e6 / wire_updates, "us");
  out.add("engine.queue_wait_us", queue_wait / 1e3 * per_rec, "us");
  out.add("engine.executor_busy_share",
          self_total[static_cast<std::size_t>(Layer::kTask)] / 1e6 /
              (std::max(1e-9, wall) * spec.workers),
          "share");
  out.add("engine.tasks_failed", failed, "count");
  out.add("engine.tasks_retried", retries, "count");
  out.add("optim.task_us", self_total[static_cast<std::size_t>(Layer::kTask)] * per_task, "us");
  out.add("optim.apply_us", per_update(Layer::kApply), "us");
  out.add("metrics.snapshot_us", per_update(Layer::kSnapshot), "us");
  out.add("trace.overhead_share", 1.0 - median(traced_rate) / median(untraced_rate), "share");
  out.add("trace.driver_span_share", median(driver_share), "share");
  out.add("trace.service_pad_us", pad / 1e3 * per_rec, "us");
  out.add("trace.modeled_network_ms", modeled_net, "ms");

  // Zero-delay guard: the workloads must measure the engine, never sleep.
  // The modeled service floor and network charges must be exactly zero. A
  // padded task sleeps for its whole floor; without padding the service_pad
  // segment is the gap between two adjacent clock reads, so its mean stays
  // far below a microsecond (a rare preemption between the reads shows in
  // the max, not the mean).
  constexpr double kNoSleepMeanNs = 1'000.0;
  const double pad_mean = pad * per_rec;
  const bool zero_delay =
      modeled_service == 0.0 && modeled_net == 0.0 && pad_mean < kNoSleepMeanNs;
  out.note("zero-delay guard",
           std::string(zero_delay ? "ok" : "FAILED") + " (modeled service " +
               fmt(modeled_service) + " ms, modeled network " + fmt(modeled_net) +
               " ms, service_pad mean " + fmt(pad_mean) + " ns, max " + fmt(pad_max) +
               " ns)");
  out.correct = out.correct && zero_delay;

  // Chrome trace of the first traced episode, and the self-time table.
  std::vector<Span> chrome_driver(rec.driver_spans().begin(),
                                  rec.driver_spans().begin() +
                                      static_cast<std::ptrdiff_t>(chrome_driver_end));
  const std::string trace_path =
      (fs::path(ctx.workdir).parent_path() /
       (spec.name + "-seed" + std::to_string(ctx.seed) + ".trace.json"))
          .string();
  write_chrome_trace(trace_path, chrome_driver, chrome_tasks);
  out.note("chrome trace", trace_path + " (first updates of the first traced episode, at " +
                               "most " + std::to_string(kChromeSpanCap) + " events)");
  out.note("episodes", std::to_string(traced.size()) + " traced, " +
                           std::to_string(plain.size()) + " untraced; traced " +
                           fmt(median(traced_rate)) + " updates/s, untraced " +
                           fmt(median(untraced_rate)) + " updates/s");
  out.note("driver-side spans cover", fmt(100.0 * median(driver_share)) +
                                          "% of traced wall time");
  std::ostringstream table;
  table << "\n    layer                    self_ms   us/update   share_of_wall";
  for (std::size_t l = 0; l < kLayers; ++l) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\n    %-22s %10.2f %11.3f %14.4f",
                  layer_name(static_cast<Layer>(l)), self_total[l] / 1e3,
                  self_total[l] / updates, self_total[l] / 1e6 / std::max(1e-9, wall));
    table << buf;
  }
  out.note("per-layer self time (traced episodes)", table.str());
  return out;
}

}  // namespace perfbench
