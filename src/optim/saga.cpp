#include "optim/saga.hpp"

#include "core/async_context.hpp"
#include "optim/solver_util.hpp"

namespace asyncml::optim {

RunResult SagaSolver::run(engine::Cluster& cluster, const Workload& workload,
                          const SolverConfig& config) {
  const std::size_t n = workload.n();
  detail::SolverRun run(cluster, workload, config, /*saga_two_pass=*/true);

  core::AsyncContext ac(cluster, workload.num_partitions(), config.store_config);
  ac.scheduler().set_policy(detail::history_task_policy(workload, config));
  auto table =
      std::make_shared<core::SampleVersionTable>(n, detail::kNeverVisited);

  linalg::DenseVector w(workload.dim());
  linalg::DenseVector alpha_bar(workload.dim());  // ᾱ — "averageHistory" of Algorithm 3
  linalg::DenseVector direction(workload.dim());  // per-update scratch, reused
  // SAGA resumes the *model* and the version/round streams, but restarts
  // ᾱ and the version table cold: the table's entries reference published
  // history the restarted process no longer holds, and restoring ᾱ
  // without them would bias every correction term. A cold table is just
  // plain SAGA warm-started at w — unbiased, converging from a better
  // iterate. The checkpoint still carries "alpha_bar" for inspection.
  const std::uint64_t k0 = run.resume(ac, w);
  core::HistoryBroadcast w_br = ac.async_broadcast(w);
  run.start(k0, w);

  auto comb = detail::grad_hist_comb();
  for (std::uint64_t k = k0; k < config.updates; ++k) {
    std::vector<core::TaggedResult> results = ac.sync_round_fn(
        detail::saga_task_fn(workload, config, w_br, table, run.grad_cfg,
                             config.batch_fraction, run.support),
        run.opts);

    GradHist total;
    for (core::TaggedResult& r : results) {
      total = comb(std::move(total), r.result.payload.get<GradHist>());
    }
    if (total.count > 0) {
      const double inv_b = 1.0 / static_cast<double>(total.count);
      // w ← w − α (ĝ_new − ĝ_old + ᾱ)
      direction = alpha_bar;
      total.grad.scale_into(inv_b, direction.span());
      total.hist.scale_into(-inv_b, direction.span());
      linalg::axpy(-config.step(k), direction.span(), w.span());
      // ᾱ ← ᾱ + (1/n) Σ_B (∇f_j − α_j)
      const double inv_n = 1.0 / static_cast<double>(n);
      total.grad.scale_into(inv_n, alpha_bar.span());
      total.hist.scale_into(-inv_n, alpha_bar.span());
    }
    ac.advance_version();
    w_br = ac.async_broadcast(w);
    run.snapshot(k + 1, w);
    detail::maybe_gc_history(ac, config, k + 1, [&] { return table->min_version(); });
    detail::maybe_checkpoint(config, ac, w, k + 1, {{"alpha_bar", alpha_bar}});
  }
  return run.finish("SAGA", w, config.updates, cluster.metrics().tasks_completed.load());
}

}  // namespace asyncml::optim
