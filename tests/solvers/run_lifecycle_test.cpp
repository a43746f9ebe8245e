// Run-lifecycle contract shared by every engine-path solver
// (optim::detail::SolverRun): each run resets the cluster's run counters,
// arms telemetry only when asked, disarms it on the way out, and reports a
// trace spanning update 0 to its last update. Two back-to-back runs on one
// cluster — traced, then untraced — must not see each other.

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "optim/admm.hpp"
#include "optim/asaga.hpp"
#include "optim/asgd.hpp"
#include "optim/epoch_vr.hpp"
#include "optim/mllib_sgd.hpp"
#include "optim/naive_saga.hpp"
#include "optim/saga.hpp"
#include "optim/sgd.hpp"
#include "optim/solver_util.hpp"

namespace asyncml::optim {
namespace {

engine::Cluster::Config quiet_config() {
  engine::Cluster::Config config;
  config.num_workers = 2;
  config.cores_per_worker = 2;
  config.network.time_scale = 0.0;
  return config;
}

Workload tiny_workload() {
  const auto problem = data::synthetic::tiny(240, 10, 0.0, /*seed=*/21);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);
  return Workload::create(dataset, /*partitions=*/4, make_least_squares());
}

using RunFn = RunResult (*)(engine::Cluster&, const Workload&, bool telemetry);

template <typename Solver>
RunResult run_solver(engine::Cluster& cluster, const Workload& workload, bool telemetry) {
  SolverConfig config;
  config.updates = 40;
  config.batch_fraction = 0.3;
  config.step = constant_step(0.02);
  config.service_floor_ms = 0.05;
  config.eval_every = 7;
  config.epoch_inner_updates = 15;
  config.telemetry.enabled = telemetry;
  return Solver::run(cluster, workload, config);
}

RunResult run_admm(engine::Cluster& cluster, const Workload& workload, bool telemetry) {
  AdmmConfig config;
  config.updates = 40;
  config.service_floor_ms = 0.05;
  config.eval_every = 7;
  config.telemetry.enabled = telemetry;
  return AsyncAdmmSolver::run(cluster, workload, config);
}

struct SolverCase {
  const char* name;
  RunFn run;
};

void PrintTo(const SolverCase& c, std::ostream* os) { *os << c.name; }

class RunLifecycle : public ::testing::TestWithParam<SolverCase> {};

TEST_P(RunLifecycle, TracedThenUntracedRunsStayIndependent) {
  engine::Cluster cluster(quiet_config());
  const Workload workload = tiny_workload();

  const RunResult traced = GetParam().run(cluster, workload, /*telemetry=*/true);
  EXPECT_FALSE(cluster.telemetry().enabled());
  const RunResult untraced = GetParam().run(cluster, workload, /*telemetry=*/false);
  EXPECT_FALSE(cluster.telemetry().enabled());

  // A report only where one was asked for.
  EXPECT_NE(traced.telemetry, nullptr);
  EXPECT_EQ(untraced.telemetry, nullptr);

  for (const RunResult* r : {&traced, &untraced}) {
    EXPECT_EQ(r->updates, 40u);
    EXPECT_GT(r->wall_ms, 0.0);
    ASSERT_FALSE(r->trace.empty());
    EXPECT_EQ(r->trace.front().update, 0u);
    EXPECT_EQ(r->trace.back().update, r->updates);
    EXPECT_GT(r->tasks, 0u);
    EXPECT_GT(r->result_bytes, 0u);
  }
  // Counters reset between runs: the same work again, not the running sum
  // (async runs may differ by the few tasks in flight at the end).
  EXPECT_LT(untraced.tasks, traced.tasks * 3 / 2);
  EXPECT_LT(untraced.result_bytes, traced.result_bytes * 3 / 2);
}

INSTANTIATE_TEST_SUITE_P(
    EngineSolvers, RunLifecycle,
    ::testing::Values(SolverCase{"Sgd", &run_solver<SgdSolver>},
                      SolverCase{"MllibSgd", &run_solver<MllibSgdSolver>},
                      SolverCase{"ScheduledSgd", &run_solver<ScheduledSgdSolver>},
                      SolverCase{"Asgd", &run_solver<AsgdSolver>},
                      SolverCase{"Saga", &run_solver<SagaSolver>},
                      SolverCase{"Asaga", &run_solver<AsagaSolver>},
                      SolverCase{"NaiveSaga", &run_solver<NaiveSagaSolver>},
                      SolverCase{"EpochVr", &run_solver<EpochVrSolver>},
                      SolverCase{"AsyncAdmm", &run_admm}),
    [](const ::testing::TestParamInfo<SolverCase>& info) {
      return std::string(info.param.name);
    });

TEST(SolverRun, DisarmsTelemetryWhenFinishIsSkipped) {
  // Any exit that skips finish() (an exception, a stopped context) must not
  // leave the recorder armed for the cluster's next, untraced run.
  engine::Cluster cluster(quiet_config());
  const Workload workload = tiny_workload();
  SolverConfig config;
  config.telemetry.enabled = true;
  {
    detail::SolverRun run(cluster, workload, config);
    EXPECT_TRUE(cluster.telemetry().enabled());
  }
  EXPECT_FALSE(cluster.telemetry().enabled());
}

}  // namespace
}  // namespace asyncml::optim
