// Task-level oracle for the fused batch task bodies (optim/grad_batch.hpp):
// for every loss kind and density, the production task body
// (detail::grad_task_fn / saga_task_fn / svrg_task_fn) and the per-row
// reference — engine::make_aggregate_fn over points.sample(f) with the
// detail::make_*_seq op — run from the same TaskContext must return payloads
// with the same canonical wire encoding (count, representation, every value
// bit for bit) and leave the same SampleVersionTable contents behind
// (grad_batch.hpp's contract: same RNG draw sequence, same margin arithmetic,
// same per-coordinate accumulation order).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "data/synthetic.hpp"
#include "optim/solver_util.hpp"
#include "transport/wire.hpp"

namespace asyncml::optim {
namespace {

constexpr int kPartitions = 4;
constexpr std::uint64_t kSeed = 7;

Workload make_workload(double density, std::shared_ptr<const Loss> loss) {
  if (density >= 1.0) {
    const auto problem = data::synthetic::make_dense(
        data::synthetic::DenseSpec{.name = "dense", .rows = 160, .cols = 80},
        /*seed=*/23);
    return Workload::create(std::make_shared<const data::Dataset>(problem.dataset),
                            kPartitions, std::move(loss));
  }
  const auto problem = data::synthetic::make_sparse(
      data::synthetic::SparseSpec{
          .name = "sweep", .rows = 160, .cols = 80, .density = density},
      /*seed=*/23);
  return Workload::create(std::make_shared<const data::Dataset>(problem.dataset),
                          kPartitions, std::move(loss));
}

// The synthetic generators emit regression targets; logistic/hinge consume
// them as real-valued labels, which exercises both sign branches of their
// derivative kernels across a batch.
std::shared_ptr<const Loss> loss_by_name(const std::string& name) {
  if (name == "least_squares") return make_least_squares();
  if (name == "logistic") return make_logistic();
  return make_squared_hinge();
}

/// Exactly the worker's derivation (engine/worker.cpp).
engine::TaskContext task_context(engine::PartitionId partition, std::uint64_t seq) {
  engine::TaskContext ctx;
  ctx.partition = partition;
  ctx.seq = seq;
  ctx.rng = support::RngStream(kSeed)
                .substream(static_cast<std::uint64_t>(partition) + 1)
                .substream(seq);
  return ctx;
}

/// Runs both bodies on fresh copies of the same context and compares the
/// canonical encodings of their payloads.
void expect_same_payload(const engine::TaskFn& fused, const engine::TaskFn& reference,
                         engine::PartitionId partition, std::uint64_t seq,
                         const std::string& where) {
  engine::TaskContext fused_ctx = task_context(partition, seq);
  engine::TaskContext reference_ctx = task_context(partition, seq);
  const auto a = fused(fused_ctx);
  const auto b = reference(reference_ctx);
  ASSERT_TRUE(a.is_ok() && b.is_ok()) << where;
  EXPECT_EQ(transport::encode_payload_envelope(a.value()),
            transport::encode_payload_envelope(b.value()))
      << where << " partition=" << partition << " seq=" << seq;
}

void expect_same_table(const core::SampleVersionTable& a,
                       const core::SampleVersionTable& b, const std::string& where) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.get(i), b.get(i)) << where << " sample " << i;
  }
}

/// Three random models published at versions 0, 1, 2 on a plane of
/// `num_shards` shards, so the fused bodies' masked reads are exercised too.
std::shared_ptr<core::HistoryRegistry> publish_models(engine::BroadcastStore& store,
                                                      std::size_t dim,
                                                      std::uint32_t num_shards) {
  store::StoreConfig config;
  config.num_shards = num_shards;
  auto registry = std::make_shared<core::HistoryRegistry>(&store, config);
  support::RngStream rng(99);
  for (engine::Version v = 0; v < 3; ++v) {
    linalg::DenseVector w(dim);
    for (std::size_t i = 0; i < dim; ++i) w[i] = rng.uniform(-0.5, 0.5);
    registry->publish(w, v);
  }
  return registry;
}

using Case = std::tuple<std::string, double>;

class FusedTaskOracle : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const auto& [loss_name, density] = GetParam();
    workload_.emplace(make_workload(density, loss_by_name(loss_name)));
    config_.batch_fraction = 0.3;
    grad_cfg_ = detail::grad_config(*workload_, config_);
    where_ = loss_name + " density=" + std::to_string(density);
  }

  /// Runs `body(num_shards, support, where)` on the unsharded plane and on a
  /// 4-shard plane with the solvers' shard-support masks.
  template <typename Body>
  void for_each_plane(Body&& body) {
    for (const std::uint32_t shards : {1u, 4u}) {
      SolverConfig config = config_;
      config.store_config.num_shards = shards;
      body(shards, detail::shard_support_table(*workload_, config),
           where_ + " S=" + std::to_string(shards));
    }
  }

  engine::Rdd<data::LabeledPoint> batch(std::optional<double> fraction) const {
    return fraction.has_value() ? workload_->points.sample(*fraction)
                                : workload_->points;
  }

  std::optional<Workload> workload_;
  SolverConfig config_;
  linalg::GradVectorConfig grad_cfg_;
  std::string where_;
};

TEST_P(FusedTaskOracle, GradBodyMatchesPerRow) {
  for_each_plane([&](std::uint32_t shards, auto support, const std::string& where) {
    engine::BroadcastStore store;
    const core::HistoryBroadcast w_br(
        publish_models(store, workload_->dim(), shards), /*pinned=*/1);
    // Mini-batch tasks and the full-partition pass of an epoch head.
    for (const std::optional<double> fraction :
         {std::optional<double>(config_.batch_fraction), std::optional<double>()}) {
      const auto fused =
          detail::grad_task_fn(*workload_, config_, w_br, grad_cfg_, fraction, support);
      const auto reference = engine::make_aggregate_fn<data::LabeledPoint, GradCount>(
          batch(fraction), GradCount{linalg::GradVector(grad_cfg_)},
          detail::make_grad_seq(workload_->loss, w_br, grad_cfg_));
      for (std::uint64_t seq = 0; seq < 2 * kPartitions; ++seq) {
        expect_same_payload(*fused, *reference,
                            static_cast<engine::PartitionId>(seq % kPartitions), seq,
                            where + (fraction ? " batch" : " full"));
      }
    }
  });
}

TEST_P(FusedTaskOracle, SagaBodyMatchesPerRowAndAdvancesTheSameTable) {
  for_each_plane([&](std::uint32_t shards, auto support, const std::string& where) {
    engine::BroadcastStore store;
    const auto registry = publish_models(store, workload_->dim(), shards);
    auto fused_table = std::make_shared<core::SampleVersionTable>(
        workload_->n(), detail::kNeverVisited);
    auto reference_table = std::make_shared<core::SampleVersionTable>(
        workload_->n(), detail::kNeverVisited);
    // Lap 1 at version 1 visits fresh samples only; lap 2 at version 2 reads
    // each revisited sample's history at version 1.
    for (const engine::Version pinned : {1u, 2u}) {
      const core::HistoryBroadcast w_br(registry, pinned);
      const auto fused =
          detail::saga_task_fn(*workload_, config_, w_br, fused_table, grad_cfg_,
                               config_.batch_fraction, support);
      const auto reference = engine::make_aggregate_fn<data::LabeledPoint, GradHist>(
          batch(config_.batch_fraction),
          GradHist{linalg::GradVector(grad_cfg_), linalg::GradVector(grad_cfg_)},
          detail::make_saga_seq(workload_->loss, w_br, reference_table, grad_cfg_));
      const std::string lap = where + " v=" + std::to_string(pinned);
      for (int p = 0; p < kPartitions; ++p) {
        expect_same_payload(*fused, *reference, p, pinned, lap);
      }
      expect_same_table(*fused_table, *reference_table, lap);
    }
  });
}

TEST_P(FusedTaskOracle, SvrgBodyMatchesPerRow) {
  for_each_plane([&](std::uint32_t shards, auto support, const std::string& where) {
    engine::BroadcastStore store;
    const auto registry = publish_models(store, workload_->dim(), shards);
    const core::HistoryBroadcast w_br(registry, /*pinned=*/2);
    const core::HistoryBroadcast snapshot_br(registry, /*pinned=*/0);
    const auto fused =
        detail::svrg_task_fn(*workload_, config_, w_br, snapshot_br, grad_cfg_,
                             config_.batch_fraction, support);
    const auto reference = engine::make_aggregate_fn<data::LabeledPoint, GradHist>(
        batch(config_.batch_fraction),
        GradHist{linalg::GradVector(grad_cfg_), linalg::GradVector(grad_cfg_)},
        detail::make_svrg_seq(workload_->loss, w_br, snapshot_br, grad_cfg_));
    for (std::uint64_t seq = 0; seq < 2 * kPartitions; ++seq) {
      expect_same_payload(*fused, *reference,
                          static_cast<engine::PartitionId>(seq % kPartitions), seq,
                          where);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    LossDensityGrid, FusedTaskOracle,
    ::testing::Combine(::testing::Values("least_squares", "logistic",
                                         "squared_hinge"),
                       ::testing::Values(0.001, 0.01, 0.1, 1.0)),
    [](const ::testing::TestParamInfo<Case>& info) {
      const std::string& loss = std::get<0>(info.param);
      const double density = std::get<1>(info.param);
      const std::string d = density >= 1.0
                                ? "dense"
                                : "d" + std::to_string(static_cast<int>(density * 1000));
      return loss + "_" + d;
    });

}  // namespace
}  // namespace asyncml::optim
