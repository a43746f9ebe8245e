#include "optim/asaga.hpp"

#include "core/async_context.hpp"
#include "optim/solver_util.hpp"

namespace asyncml::optim {

RunResult AsagaSolver::run(engine::Cluster& cluster, const Workload& workload,
                           const SolverConfig& config) {
  const std::size_t n = workload.n();
  const double step_scale =
      config.async_step_scale.value_or(1.0 / static_cast<double>(cluster.num_workers()));
  detail::SolverRun run(cluster, workload, config, /*saga_two_pass=*/true);

  core::AsyncContext ac(cluster, workload.num_partitions(), config.store_config);
  ac.scheduler().set_policy(detail::history_task_policy(workload, config));
  auto table =
      std::make_shared<core::SampleVersionTable>(n, detail::kNeverVisited);

  linalg::DenseVector w(workload.dim());
  linalg::DenseVector alpha_bar(workload.dim());
  linalg::DenseVector direction(workload.dim());  // per-update scratch, reused
  core::HistoryBroadcast w_br = ac.async_broadcast(w);  // version 0

  auto rebuild_factory = [&] {
    return ac.make_fn_factory(
        detail::saga_task_fn(workload, config, w_br, table, run.grad_cfg,
                             config.batch_fraction, run.support),
        run.opts);
  };
  core::AsyncScheduler::TaskFactory factory = rebuild_factory();
  run.start(0, w);

  detail::dispatch_live(ac, config.barrier, factory);

  std::uint64_t updates = 0;
  while (updates < config.updates) {
    auto collected = ac.collect(&factory);
    if (!collected.has_value()) break;

    const GradHist& g = collected->result.payload.get<GradHist>();
    if (g.count > 0) {
      const double inv_b = 1.0 / static_cast<double>(g.count);
      direction = alpha_bar;
      g.grad.scale_into(inv_b, direction.span());
      g.hist.scale_into(-inv_b, direction.span());
      linalg::axpy(-config.step(updates) * step_scale, direction.span(), w.span());

      const double inv_n = 1.0 / static_cast<double>(n);
      g.grad.scale_into(inv_n, alpha_bar.span());
      g.hist.scale_into(-inv_n, alpha_bar.span());
    }
    ++updates;
    ac.advance_version();
    w_br = ac.async_broadcast(w);
    factory = rebuild_factory();
    run.snapshot(updates, w);
    // History GC: floored by the sample table so recomputable historical
    // gradients keep their versions resolvable.
    detail::maybe_gc_history(ac, config, updates, [&] { return table->min_version(); });

    detail::dispatch_live(ac, config.barrier, factory);
  }
  return run.finish("ASAGA", w, updates, updates);
}

}  // namespace asyncml::optim
