#include "optim/epoch_vr.hpp"

#include "core/async_context.hpp"
#include "optim/solver_util.hpp"

namespace asyncml::optim {

RunResult EpochVrSolver::run(engine::Cluster& cluster, const Workload& workload,
                             const SolverConfig& config) {
  const std::size_t dim = workload.dim();
  const double step_scale =
      config.async_step_scale.value_or(1.0 / static_cast<double>(cluster.num_workers()));
  detail::SolverRun run(cluster, workload, config, /*saga_two_pass=*/true);
  // The full-gradient pass touches the whole partition.
  core::SubmitOptions full_opts = run.opts;
  full_opts.service_floor_ms = config.cost.task_service_ms(
      *workload.dataset, workload.num_partitions(), 1.0);

  core::AsyncContext ac(cluster, workload.num_partitions(), config.store_config);
  ac.scheduler().set_policy(detail::scheduler_policy(workload, config));

  linalg::DenseVector w(dim);
  linalg::DenseVector direction(dim);  // per-update scratch, reused
  run.start(0, w);

  std::uint64_t updates = 0;
  bool stopped = false;
  auto comb = detail::grad_comb();
  while (!stopped && updates < config.updates) {
    // ---- Epoch head: synchronous full gradient at the snapshot w̃. --------
    // The previous epoch's history (its snapshot and inner versions) is dead
    // once the tail drain left the cluster quiet; compact it.
    if (config.gc_every != 0) (void)ac.gc_history();
    const linalg::DenseVector snapshot = w;
    core::HistoryBroadcast snapshot_br = ac.async_broadcast(snapshot);
    const engine::Version snapshot_version = snapshot_br.version();

    auto full_results = ac.sync_round_fn(
        detail::grad_task_fn(workload, config, snapshot_br, run.grad_cfg,
                             /*fraction=*/std::nullopt, run.support),
        full_opts);
    GradCount mu_sum;
    for (core::TaggedResult& r : full_results) {
      mu_sum = comb(std::move(mu_sum), r.result.payload.get<GradCount>());
    }
    linalg::DenseVector mu(dim);
    if (mu_sum.count > 0) {
      mu_sum.grad.scale_into(1.0 / static_cast<double>(mu_sum.count), mu.span());
    }

    // ---- Asynchronous inner loop. -----------------------------------------
    core::HistoryBroadcast w_br = ac.handle_for(snapshot_version);
    auto rebuild_factory = [&] {
      return ac.make_fn_factory(
          detail::svrg_task_fn(workload, config, w_br, snapshot_br, run.grad_cfg,
                               config.batch_fraction, run.support),
          run.opts);
    };
    core::AsyncScheduler::TaskFactory factory = rebuild_factory();
    detail::dispatch_live(ac, config.barrier, factory);

    std::uint64_t inner = 0;
    while (inner < config.epoch_inner_updates && updates < config.updates) {
      auto collected = ac.collect(&factory);
      stopped = !collected.has_value();  // context stopped: partial result
      if (stopped) break;

      const GradHist& g = collected->result.payload.get<GradHist>();
      if (g.count > 0) {
        const double inv_b = 1.0 / static_cast<double>(g.count);
        direction = mu;
        g.grad.scale_into(inv_b, direction.span());
        g.hist.scale_into(-inv_b, direction.span());
        linalg::axpy(-config.step(updates) * step_scale, direction.span(), w.span());
      }
      ++inner;
      ++updates;
      ac.advance_version();
      w_br = ac.async_broadcast(w);
      factory = rebuild_factory();
      run.snapshot(updates, w);
      // In-flight inner tasks still read the epoch's w̃ — floor the GC there.
      detail::maybe_gc_history(ac, config, updates, snapshot_version);
      if (inner < config.epoch_inner_updates && updates < config.updates) {
        detail::dispatch_live(ac, config.barrier, factory);
      }
    }

    // ---- Epoch tail: drain in-flight inner tasks so the next epoch's
    // synchronous stage sees a quiet cluster (Listing 3's epoch boundary). --
    while (!stopped && (ac.coordinator().total_outstanding() > 0 || ac.has_next())) {
      auto leftover = ac.collect(&factory);
      stopped = !leftover.has_value();
      if (stopped) break;
      // Leftover inner results are still valid SVRG updates; apply them
      // while the update budget lasts. Past it, they are only drained.
      const GradHist& g = leftover->result.payload.get<GradHist>();
      if (g.count > 0 && updates < config.updates) {
        const double inv_b = 1.0 / static_cast<double>(g.count);
        direction = mu;
        g.grad.scale_into(inv_b, direction.span());
        g.hist.scale_into(-inv_b, direction.span());
        linalg::axpy(-config.step(updates) * step_scale, direction.span(), w.span());
        ++updates;
        ac.advance_version();
        run.snapshot(updates, w);
      }
    }
  }
  return run.finish("EpochVR", w, updates, updates);
}

}  // namespace asyncml::optim
