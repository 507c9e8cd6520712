// Engine-level invariants, including regression guards for bugs found while
// calibrating the figures:
//   - a core can never be double-booked (its busy time is bounded by the
//     makespan) — regression for the duplicate-wake-event bug;
//   - the PTT learns intrinsic task durations, not queue-skewed assembly
//     spans — regression for the poisoned-wide-places bug;
//   - work conservation across engines and policies (including dHEFT).

#include <gtest/gtest.h>

#include "core/cost_expr.hpp"
#include "kernels/registry.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "workloads/synthetic_dag.hpp"

namespace das {
namespace {

class EngineInvariants : public ::testing::Test {
 protected:
  EngineInvariants() : topo_(Topology::tx2()) {
    ids_ = kernels::register_paper_kernels(registry_);
  }
  Topology topo_;
  TaskTypeRegistry registry_;
  kernels::PaperKernelIds ids_;
};

TEST_F(EngineInvariants, PerCoreBusyNeverExceedsMakespan) {
  // Regression: a duplicated wake event once let one core run two
  // participations concurrently, inflating its busy time past the makespan.
  for (Policy p : {Policy::kRws, Policy::kFa, Policy::kDamC, Policy::kDamP,
                   Policy::kDheft}) {
    Dag dag = workloads::make_synthetic_dag(
        workloads::paper_matmul_spec(ids_.matmul, 3, 0.02));
    SpeedScenario scenario(topo_);
    scenario.add_cpu_corunner(0);
    sim::SimEngine eng(topo_, p, registry_, {}, &scenario);
    const double makespan = eng.run(dag);
    for (int c = 0; c < topo_.num_cores(); ++c) {
      EXPECT_LE(eng.stats().busy_s(c), makespan * 1.0001)
          << policy_name(p) << " double-booked core " << c;
    }
    // And the cores did real work: total busy within (0, cores x makespan].
    EXPECT_GT(eng.stats().total_busy_s(), 0.0);
    EXPECT_LE(eng.stats().total_busy_s(), topo_.num_cores() * makespan * 1.0001);
  }
}

TEST_F(EngineInvariants, PttLearnsIntrinsicDurationNotQueueSkew) {
  // Regression: wide places once learned assembly spans including the time
  // participants spent finishing OTHER work, making molding look terrible.
  // Without noise (zero noise coefficients), the learned value for (2,4)
  // must approximate the cost model's width-4 prediction, not a multiple
  // of it.
  kernels::CostModelConfig noiseless;
  noiseless.noise0 = 0.0;
  noiseless.noise1 = 0.0;
  TaskTypeRegistry quiet;
  const auto quiet_ids = kernels::register_paper_kernels(quiet, noiseless);
  Dag dag = workloads::make_synthetic_dag(
      workloads::paper_matmul_spec(quiet_ids.matmul, 6, 0.05));
  sim::SimEngine eng(topo_, Policy::kRwsmC, quiet);
  eng.run(dag);

  const Ptt& ptt = eng.ptt().table(quiet_ids.matmul);
  const ExecutionPlace wide{2, 4};
  if (ptt.samples(wide) > 0) {
    CostQuery q;
    q.place = wide;
    q.core = 2;
    q.speed = topo_.cluster(1).base_speed;
    q.bw_share = 1.0;
    q.cluster = &topo_.cluster(1);
    TaskParams params;
    params.p0 = 64;
    const double predicted =
        cost_expr_eval(quiet.info(quiet_ids.matmul).cost, params, q);
    EXPECT_LT(ptt.value(wide), predicted * 1.5)
        << "PTT value contaminated by arrival skew";
    EXPECT_GT(ptt.value(wide), predicted * 0.5);
  }
}

TEST_F(EngineInvariants, StealExemptTasksRunExactlyWherePlaced) {
  // Under heavy load with a fixed seed, every high-priority execution place
  // recorded in the stats must be one the policy could have produced
  // (denver round-robin for FA: exactly {(0,1), (1,1)}).
  Dag dag = workloads::make_synthetic_dag(
      workloads::paper_matmul_spec(ids_.matmul, 6, 0.05));
  sim::SimEngine eng(topo_, Policy::kFa, registry_);
  eng.run(dag);
  for (const auto& [place, share] : eng.stats().distribution(Priority::kHigh)) {
    EXPECT_TRUE((place == ExecutionPlace{0, 1}) || (place == ExecutionPlace{1, 1}))
        << "unexpected high-priority place " << to_string(place);
  }
}

TEST_F(EngineInvariants, DheftIsDeterministic) {
  auto run_once = [&] {
    Dag dag = workloads::make_synthetic_dag(
        workloads::paper_matmul_spec(ids_.matmul, 4, 0.02));
    sim::SimOptions opts;
    opts.seed = 5;
    sim::SimEngine eng(topo_, Policy::kDheft, registry_, opts);
    return eng.run(dag);
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST_F(EngineInvariants, RealRuntimeBusyBoundedByWallTime) {
  Dag dag;
  for (int i = 0; i < 60; ++i)
    dag.add_node(ids_.matmul, Priority::kLow, {},
                 [](const ExecContext&) { busy_wait_ns(500000); });
  rt::Runtime rt(topo_, Policy::kRws, registry_);
  const double wall = rt.run(dag);
  for (int c = 0; c < topo_.num_cores(); ++c) {
    EXPECT_LE(rt.stats().busy_s(c), wall * 1.10)  // 10% timer slack
        << "core " << c << " busy exceeds wall time";
  }
}

TEST_F(EngineInvariants, MultiRunVirtualClockIsMonotone) {
  sim::SimEngine eng(topo_, Policy::kDamC, registry_);
  double prev = eng.now();
  for (int i = 0; i < 5; ++i) {
    Dag dag = workloads::make_synthetic_dag(
        workloads::paper_matmul_spec(ids_.matmul, 2, 0.005));
    eng.run(dag);
    EXPECT_GT(eng.now(), prev);
    prev = eng.now();
  }
}

}  // namespace
}  // namespace das
