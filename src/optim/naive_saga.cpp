#include "optim/naive_saga.hpp"

#include <vector>

#include "core/history.hpp"  // SampleVersionTable reused as the index table
#include "engine/actions.hpp"
#include "optim/solver_util.hpp"

namespace asyncml::optim {

namespace {

/// The "table" of Algorithm 3: every past model parameter, shipped wholesale.
struct ModelTable {
  std::vector<linalg::DenseVector> models;  // models[k] = w after update k
};

[[nodiscard]] std::size_t payload_size_bytes(const ModelTable& t) {
  std::size_t bytes = 0;
  for (const auto& m : t.models) bytes += m.size_bytes();
  return bytes;
}

/// Handle adapter for the fused batch body: "the fresh model" is one entry
/// of the wholesale-shipped table.
struct TableHandle {
  engine::Broadcast<ModelTable> br;
  std::uint64_t index = 0;
  [[nodiscard]] const linalg::DenseVector& value() const {
    return br.value().models[index];
  }
};

}  // namespace

RunResult NaiveSagaSolver::run(engine::Cluster& cluster, const Workload& workload,
                               const SolverConfig& config) {
  const std::size_t n = workload.n();
  detail::SolverRun run(cluster, workload, config, /*saga_two_pass=*/true);
  const linalg::GradVectorConfig& grad_cfg = run.grad_cfg;

  // Worker-resident per-sample index into the model table (same partition-
  // affinity contract as core::SampleVersionTable).
  auto index_table =
      std::make_shared<core::SampleVersionTable>(n, detail::kNeverVisited);

  linalg::DenseVector w(workload.dim());
  linalg::DenseVector alpha_bar(workload.dim());
  linalg::DenseVector direction(workload.dim());  // per-update scratch, reused
  ModelTable table;
  table.models.push_back(w);  // "store w in table" (Algorithm 3 line 2)
  run.start(0, w);

  auto comb = detail::grad_hist_comb();
  engine::BroadcastId previous_id = 0;
  for (std::uint64_t k = 0; k < config.updates; ++k) {
    // The expensive line: the ENTIRE table is a fresh broadcast value every
    // iteration, so every worker re-fetches O(k·d) bytes.
    engine::Broadcast<ModelTable> table_br =
        cluster.broadcast(table, payload_size_bytes(table));
    const std::uint64_t current_index = table.models.size() - 1;

    auto fn = detail::make_saga_batch_fn(
        workload.dataset, workload.partitions, workload.loss,
        TableHandle{table_br, current_index}, index_table, grad_cfg,
        config.batch_fraction,
        [table_br](engine::Version last,
                   const core::ShardSet* /*mask*/) -> const linalg::DenseVector& {
          return table_br.value().models[last];
        },
        /*set_version=*/current_index);

    engine::StageOptions stage;
    // seq = k+1 aligns batches with SagaSolver (the AsyncScheduler's round
    // counter starts at 1), so the two trajectories are directly comparable.
    stage.seq = k + 1;
    stage.model_version = k;
    stage.service_floor_ms = run.opts.service_floor_ms;
    stage.rng_seed = config.seed;
    const GradHist total = engine::aggregate_sync_fn(
        cluster, std::move(fn), workload.num_partitions(),
        GradHist{linalg::GradVector(grad_cfg), linalg::GradVector(grad_cfg)}, comb,
        stage);

    if (total.count > 0) {
      const double inv_b = 1.0 / static_cast<double>(total.count);
      direction = alpha_bar;
      total.grad.scale_into(inv_b, direction.span());
      total.hist.scale_into(-inv_b, direction.span());
      linalg::axpy(-config.step(k), direction.span(), w.span());
      const double inv_n = 1.0 / static_cast<double>(n);
      total.grad.scale_into(inv_n, alpha_bar.span());
      total.hist.scale_into(-inv_n, alpha_bar.span());
    }
    table.models.push_back(w);  // "update table" (Algorithm 3 line 8)
    run.snapshot(k + 1, w);

    if (previous_id != 0) cluster.store().erase(previous_id);
    previous_id = table_br.id();
  }
  return run.finish("NaiveSAGA", w, config.updates,
                    cluster.metrics().tasks_completed.load());
}

}  // namespace asyncml::optim
