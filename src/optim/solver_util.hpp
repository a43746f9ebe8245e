#pragma once

// Internals shared by the solvers: the SolverRun lifecycle (run-metric and
// telemetry bookkeeping), the task bodies (the `map` of Algorithms 1–4) and
// their per-row reference sequence operators.

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "core/async_context.hpp"
#include "core/history.hpp"
#include "core/shard_map.hpp"
#include "data/dataset.hpp"
#include "engine/metrics.hpp"
#include "linalg/blas.hpp"
#include "linalg/grad_vector.hpp"
#include "metrics/trace.hpp"
#include "optim/checkpoint.hpp"
#include "optim/grad_batch.hpp"
#include "optim/loss.hpp"
#include "optim/objective.hpp"
#include "optim/payloads.hpp"
#include "optim/run_result.hpp"
#include "optim/solver_config.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_util.hpp"

namespace asyncml::optim::detail {

/// Resolves the gradient representation for a (workload, config) pair: the
/// expected per-task batch support (dataset density unioned over the rows
/// one task samples) drives the kAuto choice, so rcv1-like runs accumulate
/// and ship sparse gradients without any per-solver opt-in while saturating
/// batches start dense.
[[nodiscard]] inline linalg::GradVectorConfig grad_config(const Workload& workload,
                                                          const SolverConfig& config) {
  const double rows_per_task =
      config.batch_fraction * static_cast<double>(workload.n()) /
      static_cast<double>(std::max(1, workload.num_partitions()));
  return config.grad_config(workload.dim(), workload.dataset->density(),
                            std::max(1.0, rows_per_task));
}

/// Sentinel for "sample never visited" (canonical definition lives beside
/// SampleVersionTable in core/history.hpp).
inline constexpr engine::Version kNeverVisited = core::kNeverVisited;

/// Per-partition shard-support sets of a sparse workload on a sharded model
/// plane (docs/SHARDING.md): for each partition, the sorted set of shards its
/// rows' column indices touch.  Fused task bodies pass their partition's set
/// as the read mask, so a 0.2%-density batch materializes only the shards its
/// support hits instead of assembling all S.  Null when masking cannot help:
/// an unsharded plane, or a dense dataset (every row touches every shard).
/// The ShardMap here is a pure function of (dim, S) — identical to
/// the one the sharded store builds lazily at first publish.
[[nodiscard]] inline std::shared_ptr<const std::vector<core::ShardSet>>
shard_support_table(const Workload& workload, const SolverConfig& config) {
  if (config.store_config.num_shards <= 1 || workload.dataset->is_dense()) {
    return nullptr;
  }
  const core::ShardMap map(workload.dim(), config.store_config.num_shards);
  if (map.num_shards() <= 1) return nullptr;
  const linalg::CsrMatrix& csr = workload.dataset->sparse_features();
  auto table = std::make_shared<std::vector<core::ShardSet>>();
  table->reserve(workload.partitions.size());
  std::vector<std::uint8_t> hit(map.num_shards());
  for (const data::RowRange& range : workload.partitions) {
    std::fill(hit.begin(), hit.end(), std::uint8_t{0});
    for (std::size_t r = range.begin; r < range.end; ++r) {
      for (std::uint32_t col : csr.row(r).indices) hit[map.shard_of(col)] = 1;
    }
    core::ShardSet set;
    for (std::uint32_t s = 0; s < map.num_shards(); ++s) {
      if (hit[s] != 0) set.ids.push_back(s);
    }
    table->push_back(std::move(set));
  }
  return table;
}

inline void reset_run_metrics(engine::ClusterMetrics& m) {
  m.reset_waits();
  m.broadcast_bytes.reset();
  m.broadcast_base_bytes.reset();
  m.broadcast_delta_bytes.reset();
  m.result_bytes.reset();
  m.task_messages.reset();
  m.broadcast_fetches.reset();
  m.broadcast_hits.reset();
  m.tasks_completed.reset();
  m.tasks_failed.reset();
  m.task_compute_ns.reset();
  m.migration_bytes.reset();
  m.partitions_stolen.reset();
  m.tasks_speculated.reset();
  m.duplicate_results.reset();
  m.shard_reads.reset();
  m.shard_reads_partial.reset();
  m.shard_touches.reset();
  m.reset_shard_counters();
  m.reset_wire_counters();
  m.disk.reset();
}

/// Arms the cluster's span recorder for this run when
/// config.telemetry.enabled; otherwise a no-op — the recorder stays inert
/// and no clock is read anywhere on the task path. Must run before the
/// first dispatch (the recorder rebuilds its rings). Templated so every
/// config struct carrying a `telemetry` member (SolverConfig, AdmmConfig)
/// wires identically.
template <typename Config>
inline void begin_telemetry(engine::Cluster& cluster, const Config& config) {
  if (!config.telemetry.enabled) return;
  cluster.telemetry().configure(config.telemetry);
}

/// Final telemetry sweep: harvests what the cadence cycle has not drained
/// yet, builds the report into `r.telemetry`, writes the JSON export when
/// config.telemetry.export_path is set, and disarms the recorder so the
/// cluster can host an untraced run next.
template <typename Config>
inline void finish_telemetry(RunResult& r, engine::Cluster& cluster,
                             const Config& config) {
  if (!config.telemetry.enabled) return;
  r.telemetry = cluster.telemetry().finish();
  if (!config.telemetry.export_path.empty() && r.telemetry != nullptr) {
    r.telemetry->write_json(config.telemetry.export_path);
  }
}

/// Scheduler policy for a (workload, config) pair: the SolverConfig knobs
/// plus the workload's modeled per-partition bytes (the migration cost of a
/// steal). Installed via ac.scheduler().set_policy by every solver that
/// schedules through the AsyncContext.
[[nodiscard]] inline core::SchedulerPolicy scheduler_policy(const Workload& workload,
                                                            const SolverConfig& config) {
  core::SchedulerPolicy policy;
  policy.steal_mode = config.steal_mode;
  policy.speculation_factor = config.speculation_factor;
  policy.lost_task_factor = config.lost_task_factor;
  policy.partition_bytes = workload.partition_bytes();
  return policy;
}

/// Scheduler policy for solvers whose tasks write history (SampleVersionTable
/// updates). Those tasks are not idempotent, so nothing may re-execute them:
/// speculation (racing replicas) and lost-task rescue are forced off
/// regardless of the config knobs. Stealing never duplicates execution and
/// stays available (docs/SCHEDULING.md, "Composition caveats").
[[nodiscard]] inline core::SchedulerPolicy history_task_policy(
    const Workload& workload, const SolverConfig& config) {
  core::SchedulerPolicy policy = scheduler_policy(workload, config);
  policy.speculation_factor = 0.0;
  policy.lost_task_factor = 0.0;
  return policy;
}

/// One solver run's bookkeeping, shared by every engine-path solver so that
/// a solver body holds only its paper listing:
///
///   SolverRun run(cluster, workload, config);  // reset metrics, arm telemetry
///   core::AsyncContext ac(...);                 // the solver owns its context
///   std::uint64_t k = run.resume(ac, w);        // optional
///   run.start(k, w);                            // wall_ms starts here ...
///   ... run.snapshot(k, w) after each update ...
///   return run.finish("ASGD", w, k, tasks);     // ... and ends here
///
/// Templated on the config type (SolverConfig, AdmmConfig) like
/// begin_telemetry/finish_telemetry. The destructor disarms a recorder the
/// run left armed on any exit that skipped finish(), so the cluster can host
/// an untraced run next.
template <typename Config>
class SolverRun {
  static constexpr bool kMiniBatch = std::is_same_v<Config, SolverConfig>;

 public:
  /// Derives the run's task settings, then resets the run metrics and arms
  /// telemetry — before the solver builds its AsyncContext, so the first
  /// dispatch already sees fresh counters and rings. `saga_two_pass` charges
  /// the modeled service time of a task computing fresh and historical
  /// gradients.
  SolverRun(engine::Cluster& cluster, const Workload& workload, const Config& config,
            bool saga_two_pass = false)
      : cluster_(cluster),
        workload_(workload),
        config_(config),
        recorder_(config.eval_every),
        armed_(config.telemetry.enabled) {
    double fraction = 1.0;  // configs without mini-batches run full passes (ADMM)
    if constexpr (kMiniBatch) {
      fraction = config.batch_fraction;
      grad_cfg = grad_config(workload, config);
      support = shard_support_table(workload, config);
    }
    opts.service_floor_ms =
        config.service_floor_ms > 0.0
            ? config.service_floor_ms
            : config.cost.task_service_ms(*workload.dataset, workload.num_partitions(),
                                          fraction, saga_two_pass);
    opts.rng_seed = config.seed;
    reset_run_metrics(cluster.metrics());
    begin_telemetry(cluster, config);
    recorder_.reserve_for(config.updates);
  }

  ~SolverRun() {
    if (armed_) cluster_.telemetry().disable();
  }

  SolverRun(const SolverRun&) = delete;
  SolverRun& operator=(const SolverRun&) = delete;

  /// Loads config.resume_from when set: restores the model into `w` and the
  /// version and dispatch-round streams into `ac`, and returns the first
  /// update index (0 on a fresh start). A malformed or unreadable checkpoint
  /// aborts loudly: silently starting from zero would masquerade as a
  /// successful resume with a wrong trajectory.
  [[nodiscard]] std::uint64_t resume(core::AsyncContext& ac, linalg::DenseVector& w)
    requires kMiniBatch
  {
    if (config_.resume_from.empty()) return 0;
    auto loaded = load_checkpoint(config_.resume_from);
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "SolverRun: cannot resume from '%s': %s\n",
                   config_.resume_from.c_str(), loaded.status().to_string().c_str());
      std::abort();
    }
    SolverCheckpoint cp = std::move(loaded).value();
    w = std::move(cp.model);
    ac.restore(cp.model_version, cp.round);
    return cp.update_index;
  }

  /// Starts the timed span: RunResult::wall_ms and the trace's time axis
  /// count from here, with the first trace point at update `k0`.
  void start(std::uint64_t k0, const linalg::DenseVector& w) {
    watch_.reset();
    recorder_.snapshot(k0, 0.0, w);
  }

  /// Trace point after update `k`, on the config.eval_every cadence.
  void snapshot(std::uint64_t k, const linalg::DenseVector& w) {
    recorder_.maybe_snapshot(k, watch_.elapsed_ms(), w);
  }

  /// Ends the run: last trace point, wall time, the cluster's run counters,
  /// the telemetry report (disarming the recorder) and the objective trace.
  [[nodiscard]] RunResult finish(std::string algorithm, const linalg::DenseVector& w,
                                 std::uint64_t updates, std::uint64_t tasks) {
    recorder_.snapshot(updates, watch_.elapsed_ms(), w);
    RunResult r;
    r.algorithm = std::move(algorithm);
    r.wall_ms = watch_.elapsed_ms();
    r.updates = updates;
    r.tasks = tasks;
    r.final_w = w;
    const engine::ClusterMetrics& m = cluster_.metrics();
    const support::Histogram waits = m.total_wait_histogram();
    r.mean_wait_ms = waits.mean_ns() / 1e6;
    r.p95_wait_ms = waits.quantile_ns(0.95) / 1e6;
    r.broadcast_bytes = m.broadcast_bytes.load();
    r.broadcast_base_bytes = m.broadcast_base_bytes.load();
    r.broadcast_delta_bytes = m.broadcast_delta_bytes.load();
    r.result_bytes = m.result_bytes.load();
    r.broadcast_fetches = m.broadcast_fetches.load();
    r.broadcast_hits = m.broadcast_hits.load();
    const std::uint64_t completed = m.tasks_completed.load();
    r.mean_task_compute_ms =
        completed > 0
            ? static_cast<double>(m.task_compute_ns.load()) / 1e6 /
                  static_cast<double>(completed)
            : 0.0;
    r.migration_bytes = m.migration_bytes.load();
    r.partitions_stolen = m.partitions_stolen.load();
    r.tasks_speculated = m.tasks_speculated.load();
    r.duplicates_dropped = m.duplicate_results.load();
    r.shard_reads = m.shard_reads.load();
    r.shard_reads_partial = m.shard_reads_partial.load();
    r.shard_touches = m.shard_touches.load();
    for (std::size_t ch = 0; ch < engine::kNumWireChannels; ++ch) {
      const auto& wire = m.wire(static_cast<engine::WireChannel>(ch));
      r.wire[ch] = {wire.frames.load(), wire.bytes_sent.load(),
                    wire.bytes_received.load()};
    }
    r.disk = {m.disk.blob_writes.load(),   m.disk.blob_write_bytes.load(),
              m.disk.blob_reads.load(),    m.disk.blob_read_bytes.load(),
              m.disk.lru_hits.load(),      m.disk.quarantines.load(),
              m.disk.recovery_walks.load(), m.disk.manifest_appends.load()};
    finish_telemetry(r, cluster_, config_);
    armed_ = false;
    r.trace = recorder_.finalize([this](const linalg::DenseVector& model) {
      return full_objective(*workload_.dataset, *workload_.loss, model);
    });
    return r;
  }

  /// Per-task settings for the solver's task factories and stages: the
  /// service floor (config.service_floor_ms, else the cost model's charge
  /// for one task's data volume) and the seed.
  core::SubmitOptions opts;
  /// Gradient accumulator representation (see grad_config); SolverConfig only.
  linalg::GradVectorConfig grad_cfg;
  /// Per-partition shard-support sets (see shard_support_table); null when
  /// masking cannot help, and always for configs without a model store.
  std::shared_ptr<const std::vector<core::ShardSet>> support;

 private:
  engine::Cluster& cluster_;
  const Workload& workload_;
  const Config& config_;
  metrics::TraceRecorder recorder_;
  support::Stopwatch watch_;
  bool armed_;
};

/// Snapshots the solver state to config.checkpoint_path on the
/// checkpoint_every cadence. `update_index` counts *completed* model updates
/// (call with k+1 after the k-th update has been applied and the version
/// advanced, so a restore at index k resumes with update k+1). `aux` carries
/// solver-specific vectors (SAGA's "alpha_bar").
inline void maybe_checkpoint(const SolverConfig& config, core::AsyncContext& ac,
                             const linalg::DenseVector& w, std::uint64_t update_index,
                             std::map<std::string, linalg::DenseVector> aux = {}) {
  if (config.checkpoint_every == 0 || update_index == 0 ||
      update_index % config.checkpoint_every != 0) {
    return;
  }
  SolverCheckpoint cp;
  cp.update_index = update_index;
  cp.model_version = ac.current_version();
  cp.round = ac.scheduler().rounds_dispatched();
  cp.model = w;
  cp.aux = std::move(aux);
  const core::StatSnapshot stat = ac.stat();
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (const auto& row : stat.workers) {
    completed += static_cast<std::uint64_t>(row.tasks_completed);
    failed += static_cast<std::uint64_t>(row.tasks_failed);
  }
  cp.counters["tasks_completed"] = completed;
  cp.counters["tasks_failed"] = failed;
  cp.counters["duplicates_dropped"] = ac.coordinator().duplicates_dropped();
  cp.counters["retries"] = ac.retries();

  // With the disk tier live, checkpoint through it (v3): model/aux become
  // content-addressed blobs, the record rides the manifest, and the
  // checkpoint file shrinks to a pointer. Any step failing (an injected
  // write fault that exhausts its retries, a full disk) degrades loudly to
  // the self-contained v2 format — durability of *this* snapshot is
  // preserved either way.
  if (config.store_config.disk.enabled) {
    if (auto* tier = ac.history().sharded_store().disk_tier(); tier != nullptr) {
      store::disk::CheckpointRecord rec;
      rec.update_index = cp.update_index;
      rec.model_version = cp.model_version;
      rec.round = cp.round;
      rec.counters.assign(cp.counters.begin(), cp.counters.end());
      bool ok = false;
      // The checkpointed model is written as its own blob: solvers snapshot
      // *after* advance_version, so `w` is not yet published (and content
      // addressing dedups the write when it is).
      if (auto digest = tier->put_payload(engine::Payload::wrap<linalg::DenseVector>(
              cp.model, cp.model.size_bytes()));
          digest.is_ok()) {
        rec.model_digest = digest.value();
        ok = true;
      }
      for (const auto& [name, vec] : cp.aux) {
        if (!ok) break;
        auto digest = tier->put_payload(
            engine::Payload::wrap<linalg::DenseVector>(vec, vec.size_bytes()));
        ok = digest.is_ok();
        if (ok) rec.aux.emplace_back(name, digest.value());
      }
      if (ok) ok = tier->append_checkpoint(rec).is_ok();
      if (ok) {
        ok = save_checkpoint_v3(config.checkpoint_path, tier->dir(), update_index)
                 .is_ok();
      }
      if (ok) return;
      std::fprintf(stderr,
                   "maybe_checkpoint: disk-tier checkpoint failed; writing a "
                   "self-contained v2 checkpoint instead\n");
    }
  }

  const support::Status saved = save_checkpoint(config.checkpoint_path, cp);
  if (!saved.is_ok()) {
    std::fprintf(stderr, "maybe_checkpoint: cannot write '%s': %s\n",
                 config.checkpoint_path.c_str(), saved.to_string().c_str());
    std::abort();
  }
}

/// STAT-keyed history GC on the configured cadence: every `gc_every` updates,
/// delta chains below the minimum in-flight version (further floored by the
/// value `extra_floor()` returns — the SampleVersionTable minimum for
/// history-reading solvers) are compacted. Exactly then no dispatched task
/// can reference the erased versions. The floor is computed only when the
/// cadence fires, so the updates between GCs never pay for an O(n) scan.
template <std::invocable FloorFn>
inline void maybe_gc_history(core::AsyncContext& ac, const SolverConfig& config,
                             std::uint64_t updates, FloorFn&& extra_floor) {
  if (config.gc_every == 0 || updates == 0 || updates % config.gc_every != 0) return;
  ac.gc_history(std::forward<FloorFn>(extra_floor)());
}

/// As above with a floor already at hand (or none).
inline void maybe_gc_history(core::AsyncContext& ac, const SolverConfig& config,
                             std::uint64_t updates,
                             std::optional<engine::Version> extra_floor = std::nullopt) {
  maybe_gc_history(ac, config, updates, [extra_floor] { return extra_floor; });
}

/// Dispatch with a liveness guarantee: if the barrier admits nobody AND the
/// cluster is completely idle (so no collect can ever re-open it), keep
/// retrying until something is in flight. Randomized barriers (PSP) need the
/// retries; deterministic ones exit the loop on the first pass because
/// either something was dispatched or tasks are already outstanding.
inline int dispatch_live(core::AsyncContext& ac, const core::BarrierControl& barrier,
                         const core::AsyncScheduler::TaskFactory& factory) {
  int submitted = ac.scheduler().dispatch_eligible(barrier, factory);
  while (submitted == 0 && ac.coordinator().total_outstanding() == 0 &&
         !ac.has_next()) {
    support::precise_sleep_ms(0.1);
    submitted = ac.scheduler().dispatch_eligible(barrier, factory);
  }
  return submitted;
}

/// Gradient-sum sequence op, per-row reference (the `map(p => ∇f_p(w_br.value))`
/// of Algorithms 1–2), generic over the broadcast handle type (engine::Broadcast or
/// core::HistoryBroadcast — both expose value()).  `grad_cfg` fixes the
/// accumulator representation (see detail::grad_config); passing a bare dim
/// yields the default sparse-start policy.
template <typename Handle>
[[nodiscard]] auto make_grad_seq(std::shared_ptr<const Loss> loss, Handle w_br,
                                 linalg::GradVectorConfig grad_cfg) {
  return [loss = std::move(loss), w_br, grad_cfg](GradCount acc,
                                                  const data::LabeledPoint& p) {
    acc.grad.ensure(grad_cfg);
    const linalg::DenseVector& w = w_br.value();
    const double coeff = loss->derivative(p.features.dot(w.span()), p.label);
    p.features.axpy_into(coeff, acc.grad);
    acc.count += 1;
    return acc;
  };
}

/// Combine op summing GradCount partials (driver side of reduce(_+_)).
[[nodiscard]] inline auto grad_comb() {
  return [](GradCount a, const GradCount& b) {
    if (b.count == 0) return a;
    a.grad.add(b.grad);
    a.count += b.count;
    return a;
  };
}

/// SAGA sequence op, per-row reference (the `map((index,p) => (∇f_p(w_br.value),
/// ∇f_p(w_br.value(index))))` of Algorithm 4): fresh gradient at the pinned
/// model, historical gradient recomputed from the sample's last version, and
/// the version table advanced to the pinned version.
[[nodiscard]] inline auto make_saga_seq(std::shared_ptr<const Loss> loss,
                                        core::HistoryBroadcast w_br,
                                        std::shared_ptr<core::SampleVersionTable> table,
                                        linalg::GradVectorConfig grad_cfg) {
  return [loss = std::move(loss), w_br, table = std::move(table), grad_cfg](
             GradHist acc, const data::LabeledPoint& p) {
    acc.grad.ensure(grad_cfg);
    acc.hist.ensure(grad_cfg);
    const linalg::DenseVector& w_new = w_br.value();
    const double coeff_new = loss->derivative(p.features.dot(w_new.span()), p.label);
    p.features.axpy_into(coeff_new, acc.grad);

    const engine::Version last = table->get(p.index);
    if (last != kNeverVisited) {
      const linalg::DenseVector& w_old = w_br.value_at(last);
      const double coeff_old =
          loss->derivative(p.features.dot(w_old.span()), p.label);
      p.features.axpy_into(coeff_old, acc.hist);
    }
    table->set(p.index, w_br.version());
    acc.count += 1;
    return acc;
  };
}

/// Combine op for GradHist partials.
[[nodiscard]] inline auto grad_hist_comb() {
  return [](GradHist a, const GradHist& b) {
    if (b.count == 0) return a;
    a.grad.add(b.grad);
    a.hist.add(b.hist);
    a.count += b.count;
    return a;
  };
}

/// SVRG inner sequence op (per-row reference): fresh gradient at the
/// dispatched model and snapshot gradient at the epoch's w̃.
[[nodiscard]] inline auto make_svrg_seq(std::shared_ptr<const Loss> loss,
                                        core::HistoryBroadcast w_br,
                                        core::HistoryBroadcast snapshot_br,
                                        linalg::GradVectorConfig grad_cfg) {
  return [loss = std::move(loss), w_br, snapshot_br, grad_cfg](
             GradHist acc, const data::LabeledPoint& p) {
    acc.grad.ensure(grad_cfg);
    acc.hist.ensure(grad_cfg);
    const linalg::DenseVector& w = w_br.value();
    const double coeff = loss->derivative(p.features.dot(w.span()), p.label);
    p.features.axpy_into(coeff, acc.grad);

    const linalg::DenseVector& snap = snapshot_br.value();
    const double coeff_snap = loss->derivative(p.features.dot(snap.span()), p.label);
    p.features.axpy_into(coeff_snap, acc.hist);
    acc.count += 1;
    return acc;
  };
}

// ---- task bodies: the fused batch kernels (optim/grad_batch.hpp) -----------
//
// Every gradient-shipping solver builds its task bodies through these.
// `fraction` engaged = mini-batch sample; nullopt = full partition pass (epoch
// heads). The per-row sequence ops above are the bit-identical reference the
// fused bodies are checked against (tests/properties/batch_equivalence_test.cpp).
// The SolverConfig parameter is unread; it keeps one call shape for every body.

/// Gradient-sum task body (Algorithms 1–2).  `support` is the per-partition
/// shard-support table (shard_support_table) that masks the model reads on a
/// sharded plane.
template <typename Handle>
[[nodiscard]] std::shared_ptr<const engine::TaskFn> grad_task_fn(
    const Workload& workload, const SolverConfig& /*config*/, Handle w_br,
    linalg::GradVectorConfig grad_cfg, std::optional<double> fraction,
    std::shared_ptr<const std::vector<core::ShardSet>> support = nullptr) {
  return make_grad_batch_fn(workload.dataset, workload.partitions, workload.loss, w_br,
                            grad_cfg, fraction, std::move(support));
}

/// SAGA task body (Algorithm 4).
[[nodiscard]] inline std::shared_ptr<const engine::TaskFn> saga_task_fn(
    const Workload& workload, const SolverConfig& /*config*/, core::HistoryBroadcast w_br,
    std::shared_ptr<core::SampleVersionTable> table, linalg::GradVectorConfig grad_cfg,
    std::optional<double> fraction,
    std::shared_ptr<const std::vector<core::ShardSet>> support = nullptr) {
  return make_saga_batch_fn(
      workload.dataset, workload.partitions, workload.loss, w_br, std::move(table),
      grad_cfg, fraction,
      [w_br](engine::Version v, const core::ShardSet* mask) -> const linalg::DenseVector& {
        return w_br.value_at(v, mask);
      },
      w_br.version(), std::move(support));
}

/// SVRG inner task body (epoch VR).
[[nodiscard]] inline std::shared_ptr<const engine::TaskFn> svrg_task_fn(
    const Workload& workload, const SolverConfig& /*config*/, core::HistoryBroadcast w_br,
    core::HistoryBroadcast snapshot_br, linalg::GradVectorConfig grad_cfg,
    std::optional<double> fraction,
    std::shared_ptr<const std::vector<core::ShardSet>> support = nullptr) {
  return make_svrg_batch_fn(workload.dataset, workload.partitions, workload.loss, w_br,
                            snapshot_br, grad_cfg, fraction, std::move(support));
}

}  // namespace asyncml::optim::detail
