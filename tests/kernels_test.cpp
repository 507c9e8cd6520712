// Tests for the kernel implementations (correctness + partition coverage)
// and for the DES cost models (calibration properties the figures rely on).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/cost_expr.hpp"
#include "kernels/copy.hpp"
#include "kernels/cost_models.hpp"
#include "kernels/matmul.hpp"
#include "kernels/registry.hpp"
#include "kernels/stencil.hpp"
#include "kernels/workspace.hpp"
#include "platform/topology.hpp"

namespace das::kernels {
namespace {

TEST(PartitionRows, CoversRangeExactlyOnce) {
  for (int n : {1, 7, 16, 33}) {
    for (int width : {1, 2, 3, 4, 8}) {
      std::vector<int> hits(static_cast<std::size_t>(n), 0);
      for (int r = 0; r < width; ++r) {
        const RowRange rr = partition_rows(n, r, width);
        EXPECT_LE(rr.begin, rr.end);
        for (int i = rr.begin; i < rr.end; ++i) hits[static_cast<std::size_t>(i)]++;
      }
      for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1)
            << "n=" << n << " width=" << width << " row " << i;
    }
  }
}

TEST(PartitionRows, BalancedWithinOne) {
  for (int n : {10, 17}) {
    for (int width : {3, 4}) {
      int mn = n, mx = 0;
      for (int r = 0; r < width; ++r) {
        const RowRange rr = partition_rows(n, r, width);
        mn = std::min(mn, rr.end - rr.begin);
        mx = std::max(mx, rr.end - rr.begin);
      }
      EXPECT_LE(mx - mn, 1);
    }
  }
}

TEST(MatMul, PartitionedEqualsReference) {
  constexpr int n = 24;
  std::vector<double> a(n * n), b(n * n), c_ref(n * n), c_par(n * n, -1.0);
  for (int i = 0; i < n * n; ++i) {
    a[static_cast<std::size_t>(i)] = 0.25 * (i % 7) - 0.5;
    b[static_cast<std::size_t>(i)] = 0.125 * (i % 11) - 0.3;
  }
  matmul_reference(a.data(), b.data(), c_ref.data(), n);
  for (int width : {1, 2, 3, 4}) {
    std::fill(c_par.begin(), c_par.end(), -1.0);
    for (int r = 0; r < width; ++r)
      matmul_partition(a.data(), b.data(), c_par.data(), n, r, width);
    for (int i = 0; i < n * n; ++i)
      ASSERT_DOUBLE_EQ(c_par[static_cast<std::size_t>(i)],
                       c_ref[static_cast<std::size_t>(i)])
          << "width " << width;
  }
}

TEST(MatMul, IdentityTimesMatrix) {
  constexpr int n = 8;
  std::vector<double> eye(n * n, 0.0), b(n * n), c(n * n);
  for (int i = 0; i < n; ++i) eye[static_cast<std::size_t>(i) * n + i] = 1.0;
  for (int i = 0; i < n * n; ++i) b[static_cast<std::size_t>(i)] = i;
  matmul_reference(eye.data(), b.data(), c.data(), n);
  EXPECT_EQ(c, b);
}

TEST(Copy, PartitionedCopiesEverything) {
  constexpr std::size_t n = 1001;  // deliberately not divisible
  std::vector<double> src(n), dst(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<double>(i) * 0.5;
  for (int width : {1, 2, 3, 5}) {
    std::fill(dst.begin(), dst.end(), 0.0);
    for (int r = 0; r < width; ++r) copy_partition(src.data(), dst.data(), n, r, width);
    EXPECT_EQ(dst, src) << "width " << width;
  }
  EXPECT_DOUBLE_EQ(checksum(dst.data(), n), checksum(src.data(), n));
}

TEST(Stencil, PartitionedEqualsReference) {
  constexpr int n = 17;
  std::vector<double> in(n * n), ref(n * n, 0.0), par(n * n, 0.0);
  for (int i = 0; i < n * n; ++i) in[static_cast<std::size_t>(i)] = (i * 13) % 29;
  stencil_reference(in.data(), ref.data(), n);
  for (int width : {1, 2, 3, 4}) {
    std::fill(par.begin(), par.end(), 0.0);
    for (int r = 0; r < width; ++r) stencil_partition(in.data(), par.data(), n, r, width);
    EXPECT_EQ(par, ref) << "width " << width;
  }
}

TEST(Stencil, UniformFieldIsFixedPoint) {
  constexpr int n = 9;
  std::vector<double> in(n * n, 3.0), out(n * n, 0.0);
  stencil_reference(in.data(), out.data(), n);
  for (int i = 1; i < n - 1; ++i)
    for (int j = 1; j < n - 1; ++j)
      EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i) * n + j], 3.0);
}

TEST(Workspace, AcquireReleaseCycles) {
  WorkspacePool pool(2, 16);
  double* a = pool.acquire();
  double* b = pool.acquire();
  EXPECT_NE(a, b);
  a[0] = 1.0;
  pool.release(a);
  double* c = pool.acquire();
  EXPECT_EQ(c, a);  // LIFO freelist
  pool.release(b);
  pool.release(c);
}

// --- Cost models -------------------------------------------------------------

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest() : topo_(Topology::tx2()) {}

  CostQuery query(int core, int width, double speed, double bw = 1.0) const {
    CostQuery q;
    q.place = ExecutionPlace{core, width};
    q.core = core;
    q.speed = speed;
    q.bw_share = bw;
    q.cluster = &topo_.cluster_of_core(core);
    return q;
  }

  Topology topo_;
  CostModelConfig cfg_;
};

TEST_F(CostModelTest, MatmulScalesInverselyWithSpeed) {
  const CostExpr f = matmul_cost(cfg_);
  TaskParams p;
  p.p0 = 64;
  const double fast = cost_expr_eval(f, p, query(0, 1, 1.0));
  const double slow = cost_expr_eval(f, p, query(0, 1, 0.5));
  EXPECT_NEAR(slow / fast, 2.0, 1e-9);
}

TEST_F(CostModelTest, MatmulCacheResidencyMatchesPaperNarrative) {
  // Tile 32 fits both L1s; 64/80 only the 64 KB Denver L1; 96 only L2.
  const CostExpr f = matmul_cost(cfg_);
  auto per_flop = [&](int tile, int core) {
    TaskParams p;
    p.p0 = tile;
    const double t = cost_expr_eval(f, p, query(core, 1, 1.0));
    return t / (2.0 * tile * tile * tile);
  };
  // Denver (core 0): 32, 64, 80 all L1-resident -> same per-flop rate.
  EXPECT_NEAR(per_flop(32, 0), per_flop(64, 0), 1e-18);
  EXPECT_NEAR(per_flop(64, 0), per_flop(80, 0), 1e-18);
  EXPECT_GT(per_flop(96, 0), per_flop(64, 0));  // L2 resident: slower
  // A57 (core 2): only 32 is L1-resident.
  EXPECT_GT(per_flop(64, 2), per_flop(32, 2));
  EXPECT_NEAR(per_flop(64, 2), per_flop(80, 2), 1e-18);  // both L2 on a57
}

TEST_F(CostModelTest, MatmulWidthReducesTimeButRaisesCost) {
  const CostExpr f = matmul_cost(cfg_);
  TaskParams p;
  p.p0 = 64;
  const double t1 = cost_expr_eval(f, p, query(2, 1, 0.55));
  const double t4 = cost_expr_eval(f, p, query(2, 4, 0.55));
  EXPECT_LT(t4, t1);            // molding helps the task's latency
  EXPECT_GT(4.0 * t4, t1);      // but parallel cost rises (alpha > 0)
}

TEST_F(CostModelTest, CopyWidthScalingShowsDiminishingReturns) {
  const CostExpr f = copy_cost(cfg_);
  TaskParams p;
  p.p0 = 1024 * 1024;
  // Denver (full speed): a single core is bandwidth-bound at 12 of the
  // cluster's 20 GB/s, so width 2 gains only 20/12 = 1.67x, not 2x.
  const double d1 = cost_expr_eval(f, p, query(0, 1, 1.0));
  const double d2 = cost_expr_eval(f, p, query(0, 2, 1.0));
  EXPECT_LT(d2, d1);
  EXPECT_GT(d2, d1 / 2.0);
  // A57: issue-bound singles; width scaling flattens as the cluster
  // bandwidth share becomes the limit.
  const double t1 = cost_expr_eval(f, p, query(2, 1, 0.55));
  const double t2 = cost_expr_eval(f, p, query(2, 2, 0.55));
  const double t4 = cost_expr_eval(f, p, query(2, 4, 0.55));
  EXPECT_LT(t2, t1);
  EXPECT_LT(t4, t2);
  EXPECT_LT(t2 - t4, t1 - t2);  // diminishing returns
}

TEST_F(CostModelTest, CopyRespondsToBandwidthShare) {
  const CostExpr f = copy_cost(cfg_);
  TaskParams p;
  p.p0 = 1 << 20;
  // Width-2 on Denver is bandwidth-bound, so shrinking the cluster share
  // from 20 to 14 GB/s must show up.
  const double full = cost_expr_eval(f, p, query(0, 2, 1.0, 1.0));
  const double shared = cost_expr_eval(f, p, query(0, 2, 1.0, 0.7));
  EXPECT_GT(shared, full * 1.2);
}

TEST_F(CostModelTest, CopyBecomesCpuBoundUnderDeepDvfs) {
  const CostExpr f = copy_cost(cfg_);
  TaskParams p;
  p.p0 = 1 << 20;
  const double full = cost_expr_eval(f, p, query(0, 1, 1.0));
  const double throttled = cost_expr_eval(f, p, query(0, 1, 0.17));
  // At 17% frequency the issue rate, not bandwidth, limits: time rises.
  EXPECT_GT(throttled, full * 1.01);
}

TEST_F(CostModelTest, StencilL2SpillHurts) {
  const CostExpr f = stencil_cost(cfg_);
  TaskParams small;
  small.p0 = 256;  // 2*8*256^2 = 1 MiB < 2 MiB L2
  TaskParams big;
  big.p0 = 1024;   // 16 MiB > L2
  const double t_small = cost_expr_eval(f, small, query(2, 1, 0.55));
  const double t_big = cost_expr_eval(f, big, query(2, 1, 0.55));
  const double per_point_small = t_small / (256.0 * 256.0);
  const double per_point_big = t_big / (1024.0 * 1024.0);
  EXPECT_GT(per_point_big, per_point_small * 1.5);
}

TEST_F(CostModelTest, FixedAndCommCosts) {
  const CostExpr fx = fixed_cost(0.25);
  TaskParams p;
  EXPECT_DOUBLE_EQ(cost_expr_eval(fx, p, query(0, 1, 1.0)), 0.25);

  // Work slows with its core: exactly seconds / speed.
  const CostExpr wk = work_cost(0.25);
  EXPECT_EQ(cost_expr_eval(wk, p, query(0, 1, 1.0)), 0.25);
  EXPECT_EQ(cost_expr_eval(wk, p, query(2, 1, 0.55)), 0.25 / 0.55);

  const CostExpr cm = comm_cost(10e-6, 5.0);
  TaskParams msg;
  msg.p0 = 5e9;  // 1 second of wire time at 5 GB/s
  const double t = cost_expr_eval(cm, msg, query(0, 1, 1.0));
  EXPECT_GT(t, 1.0);
  TaskParams empty;
  EXPECT_GT(cost_expr_eval(cm, empty, query(0, 1, 1.0)), 0.0);  // latency floor
}

TEST_F(CostModelTest, KmeansCostsScaleWithWork) {
  const CostExpr map = kmeans_map_cost();
  TaskParams a;
  a.p0 = 1000; a.p1 = 8; a.p2 = 4;
  TaskParams b = a;
  b.p0 = 2000;
  EXPECT_NEAR(cost_expr_eval(map, b, query(0, 1, 1.0)) /
                  cost_expr_eval(map, a, query(0, 1, 1.0)),
              2.0, 1e-9);
  const CostExpr red = kmeans_reduce_cost();
  TaskParams r;
  r.p0 = 64;
  EXPECT_GT(cost_expr_eval(red, r, query(0, 1, 1.0)), 0.0);
}

TEST(Registry, PaperKernelsRegisterOnce) {
  TaskTypeRegistry reg;
  const PaperKernelIds ids = register_paper_kernels(reg);
  EXPECT_EQ(reg.size(), 7);
  EXPECT_EQ(reg.info(ids.matmul).name, "matmul");
  EXPECT_EQ(reg.find("stencil"), ids.stencil);
  EXPECT_EQ(reg.find("nope"), kInvalidTaskType);
  EXPECT_EQ(reg.info(ids.comm).cost.kind, CostExpr::Kind::kComm);
  const TaskTypeId bare = reg.register_type("x");
  EXPECT_EQ(reg.info(bare).cost.kind, CostExpr::Kind::kNone);
  // Noise grows for shorter tasks (drives the paper's Fig. 8).
  EXPECT_GT(TaskTypeRegistry::noise_sigma_of(reg.info(ids.matmul), 40e-6),
            TaskTypeRegistry::noise_sigma_of(reg.info(ids.matmul), 1e-3));
}

TEST(Registry, DuplicateNameRejected) {
  TaskTypeRegistry reg;
  reg.register_type("x");
  EXPECT_THROW(reg.register_type("x"), PreconditionError);
}

}  // namespace
}  // namespace das::kernels
