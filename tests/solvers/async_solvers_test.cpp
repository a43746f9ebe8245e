// Integration tests: asynchronous solvers (ASGD, ASAGA, staleness-aware ASGD,
// epoch-based VR) on the threaded cluster.

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "optim/asaga.hpp"
#include "optim/asgd.hpp"
#include "optim/epoch_vr.hpp"
#include "optim/objective.hpp"
#include "optim/sgd.hpp"

namespace asyncml::optim {
namespace {

engine::Cluster::Config quiet_config(int workers) {
  engine::Cluster::Config config;
  config.num_workers = workers;
  config.cores_per_worker = 2;
  config.network.time_scale = 0.0;
  return config;
}

Workload tiny_workload(std::uint64_t seed, int partitions = 8) {
  const auto problem = data::synthetic::tiny(240, 10, 0.0, seed);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);
  return Workload::create(dataset, partitions, make_least_squares());
}

SolverConfig fast_config() {
  SolverConfig config;
  config.updates = 300;
  config.batch_fraction = 0.3;
  config.step = inverse_decay_step(0.05, 1.0, 0.005);
  config.service_floor_ms = 0.1;
  config.eval_every = 30;
  return config;
}

TEST(AsgdSolver, ConvergesUnderAsp) {
  engine::Cluster cluster(quiet_config(4));
  const Workload workload = tiny_workload(1);
  const RunResult result = AsgdSolver::run(cluster, workload, fast_config());
  EXPECT_EQ(result.algorithm, "ASGD");
  EXPECT_EQ(result.updates, 300u);
  EXPECT_LT(result.final_error(), 0.2);
  EXPECT_LT(result.trace.back().error, result.trace.front().error * 0.3);
}

TEST(AsgdSolver, ConvergesUnderSsp) {
  engine::Cluster cluster(quiet_config(4));
  const Workload workload = tiny_workload(2);
  SolverConfig config = fast_config();
  config.barrier = core::barriers::ssp(8);
  const RunResult result = AsgdSolver::run(cluster, workload, config);
  EXPECT_LT(result.final_error(), 0.2);
}

TEST(AsgdSolver, ConvergesUnderBspGate) {
  engine::Cluster cluster(quiet_config(4));
  const Workload workload = tiny_workload(3);
  SolverConfig config = fast_config();
  config.barrier = core::barriers::bsp();
  config.updates = 160;  // BSP rounds are slower; keep the test quick
  const RunResult result = AsgdSolver::run(cluster, workload, config);
  EXPECT_LT(result.final_error(), 0.4);
}

TEST(AsgdSolver, ConvergesUnderAvailableFraction) {
  engine::Cluster cluster(quiet_config(4));
  const Workload workload = tiny_workload(4);
  SolverConfig config = fast_config();
  config.barrier = core::barriers::available_fraction(0.5);  // the §5.2 example
  const RunResult result = AsgdSolver::run(cluster, workload, config);
  EXPECT_LT(result.final_error(), 0.2);
}

TEST(AsgdSolver, StalenessAdaptiveLrConverges) {
  engine::Cluster cluster(quiet_config(4));
  const Workload workload = tiny_workload(5);
  SolverConfig config = fast_config();
  config.staleness_adaptive_lr = true;  // Listing 1
  const RunResult result = AsgdSolver::run(cluster, workload, config);
  EXPECT_EQ(result.algorithm, "ASGD-staleness");
  EXPECT_LT(result.final_error(), 0.3);
}

TEST(AsgdSolver, AsyncStepScaleHeuristicApplied) {
  // With async_step_scale forced to ~0, the model should barely move.
  engine::Cluster cluster(quiet_config(4));
  const Workload workload = tiny_workload(6);
  SolverConfig config = fast_config();
  config.updates = 50;
  config.async_step_scale = 1e-9;
  const RunResult result = AsgdSolver::run(cluster, workload, config);
  EXPECT_NEAR(result.final_error(), result.trace.front().error, 1e-3);
}

TEST(AsagaSolver, ConvergesToHighAccuracy) {
  engine::Cluster cluster(quiet_config(4));
  const Workload workload = tiny_workload(7);
  SolverConfig config = fast_config();
  config.updates = 900;
  config.step = constant_step(0.02);
  config.eval_every = 100;
  const RunResult result = AsagaSolver::run(cluster, workload, config);
  EXPECT_EQ(result.algorithm, "ASAGA");
  EXPECT_LT(result.final_error(), 1e-3);
}

TEST(AsagaSolver, HistoryBroadcastBytesStayLinear) {
  // Per-update traffic must be O(d): each worker fetches each version at most
  // once, so total fetched bytes <= updates × d × 8 × small-constant.
  engine::Cluster cluster(quiet_config(4));
  const Workload workload = tiny_workload(8);
  SolverConfig config = fast_config();
  config.updates = 200;
  config.step = constant_step(0.02);
  const RunResult result = AsagaSolver::run(cluster, workload, config);
  const std::uint64_t d_bytes = workload.dim() * sizeof(double);
  EXPECT_LT(result.broadcast_bytes, (result.updates + 10) * d_bytes * 3);
  EXPECT_GT(result.broadcast_hits, 0u);
}

TEST(AsagaSolver, LostTaskRescueNeverReExecutesVersionTableTasks) {
  // A rescued task is re-dispatched while the original may still finish, so
  // a version-table task would advance its samples' history twice. ASAGA
  // must force rescue off whatever lost_task_factor says: one compute stall
  // far past the ~2.5 ms rescue horizon stays a slow task, never a replica.
  engine::Cluster::Config cluster_config = quiet_config(2);
  cluster_config.faults.delay(engine::FaultStage::kCompute, 60.0, {.partition = 1},
                              /*times=*/1, /*after=*/2);
  engine::Cluster cluster(cluster_config);
  SolverConfig config = fast_config();
  config.updates = 120;
  config.service_floor_ms = 0.5;  // a stable EWMA median for the horizon
  config.lost_task_factor = 5.0;
  const RunResult result = AsagaSolver::run(cluster, tiny_workload(12), config);

  EXPECT_EQ(result.updates, 120u);
  ASSERT_NE(cluster.faults(), nullptr);
  EXPECT_EQ(cluster.faults()->stats().delays_injected, 1u);
  EXPECT_EQ(result.tasks_speculated, 0u);
  EXPECT_EQ(result.duplicates_dropped, 0u);
}

TEST(EpochVrSolver, ConvergesWithPeriodicSynchronization) {
  engine::Cluster cluster(quiet_config(4));
  const Workload workload = tiny_workload(9);
  SolverConfig config = fast_config();
  config.updates = 200;
  config.epoch_inner_updates = 50;
  config.step = constant_step(0.05);
  const RunResult result = EpochVrSolver::run(cluster, workload, config);
  EXPECT_EQ(result.algorithm, "EpochVR");
  EXPECT_GE(result.updates, 200u);
  EXPECT_LT(result.final_error(), 1e-2);
}

TEST(AsyncSolvers, UpdatesEqualCollectedTasks) {
  engine::Cluster cluster(quiet_config(2));
  const Workload workload = tiny_workload(10, 4);
  SolverConfig config = fast_config();
  config.updates = 40;
  const RunResult result = AsgdSolver::run(cluster, workload, config);
  EXPECT_EQ(result.updates, result.tasks);
  EXPECT_EQ(result.updates, 40u);
}

TEST(AsyncSolvers, StalenessObservedUnderAsp) {
  // With multiple workers updating one model, some results must arrive stale.
  // We detect it through convergence semantics: run ASGD and check the run's
  // version count matches updates (each result advanced the version exactly
  // once), which together with >1 workers implies interleaving.
  engine::Cluster cluster(quiet_config(4));
  const Workload workload = tiny_workload(11);
  SolverConfig config = fast_config();
  config.updates = 100;
  const RunResult result = AsgdSolver::run(cluster, workload, config);
  EXPECT_EQ(result.updates, 100u);
}

}  // namespace
}  // namespace asyncml::optim
