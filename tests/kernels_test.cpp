// Tests for workloads/kernels/: the DNN layer tables the alexnet and
// googlenet generators read, and the Jacobi, CG, multigrid and DNN
// forward-pass kernels the examples run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"
#include "workloads/kernels/dnn.h"
#include "workloads/kernels/multigrid.h"
#include "workloads/kernels/sparse.h"
#include "workloads/kernels/stencil.h"

namespace soc::workloads::kernels {
namespace {

/// Random symmetric-positive-definite sparse matrix (NPB cg style):
/// `nnz_per_row` off-diagonal entries plus a dominant diagonal.
CsrMatrix make_random_spd(std::size_t n, std::size_t nnz_per_row,
                          std::uint64_t seed) {
  SOC_CHECK(n > 1 && nnz_per_row >= 1, "bad sparse shape");
  Rng rng(seed);
  // Build symmetric structure: collect (r, c) pairs with r < c, mirror.
  std::vector<std::map<std::size_t, double>> rows(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < nnz_per_row; ++k) {
      std::size_t c = static_cast<std::size_t>(rng.next_below(n));
      if (c == r) continue;
      const double v = rng.next_range(-0.5, 0.5);
      rows[r][c] = v;
      rows[c][r] = v;
    }
  }
  // Dominant diagonal makes it SPD.
  CsrMatrix m;
  m.n = n;
  m.row_start.reserve(n + 1);
  m.row_start.push_back(0);
  for (std::size_t r = 0; r < n; ++r) {
    double off_sum = 0.0;
    for (const auto& [c, v] : rows[r]) off_sum += std::fabs(v);
    rows[r][r] = off_sum + 1.0;
    for (const auto& [c, v] : rows[r]) {
      m.col.push_back(c);
      m.val.push_back(v);
    }
    m.row_start.push_back(m.col.size());
  }
  return m;
}

TEST(Stencil, JacobiConvergesOnPoisson) {
  const std::size_t n = 24;
  Grid2D u(n, n, 0.0);
  Grid2D f(n, n, 1.0);  // constant source
  const double h = 1.0 / (n + 1);
  const int iters = jacobi_solve(u, f, h, 1e-8, 20000);
  EXPECT_LT(iters, 20000);
  // Solution of ∇²u = 1 with zero boundaries is negative inside.
  EXPECT_LT(u.at(n / 2, n / 2), 0.0);
}

TEST(Stencil, JacobiSweepReducesUpdateNorm) {
  const std::size_t n = 16;
  Grid2D u(n, n, 0.0);
  Grid2D f(n, n, 1.0);
  Grid2D next(n, n);
  const double h = 1.0 / (n + 1);
  const double d1 = jacobi_sweep(u, f, h, next);
  std::swap(u.v, next.v);
  double d2 = 0.0;
  for (int s = 0; s < 50; ++s) {
    d2 = jacobi_sweep(u, f, h, next);
    std::swap(u.v, next.v);
  }
  EXPECT_LT(d2, d1);
}

TEST(Sparse, LaplacianShape) {
  const CsrMatrix a = make_laplacian_2d(4, 4, 0.25);
  EXPECT_EQ(a.n, 16u);
  // Interior row has 5 entries; corner rows 3.
  EXPECT_EQ(a.row_start[1] - a.row_start[0], 3u);
  const std::size_t mid = 5;  // (1,1): interior of 4x4
  EXPECT_EQ(a.row_start[mid + 1] - a.row_start[mid], 5u);
}

TEST(Sparse, SpmvIdentityLike) {
  // With sigma→0 the operator approaches the identity.
  const CsrMatrix a = make_laplacian_2d(3, 3, 1e-12);
  std::vector<double> x(9);
  std::iota(x.begin(), x.end(), 1.0);
  std::vector<double> y;
  spmv(a, x, y);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_NEAR(y[i], x[i], 1e-9);
}

TEST(Sparse, CgSolvesLaplacianSystem) {
  const CsrMatrix a = make_laplacian_2d(12, 12, 0.3);
  std::vector<double> expected(a.n);
  for (std::size_t i = 0; i < a.n; ++i) {
    expected[i] = std::sin(0.1 * static_cast<double>(i));
  }
  std::vector<double> b;
  spmv(a, expected, b);
  std::vector<double> x(a.n, 0.0);
  const CgResult r = conjugate_gradient(a, b, x, 1e-10, 1000);
  EXPECT_TRUE(r.converged);
  for (std::size_t i = 0; i < a.n; ++i) {
    EXPECT_NEAR(x[i], expected[i], 1e-6);
  }
}

TEST(Sparse, CgSolvesRandomSpd) {
  const CsrMatrix a = make_random_spd(200, 6, 99);
  std::vector<double> b(a.n, 1.0);
  std::vector<double> x(a.n, 0.0);
  const CgResult r = conjugate_gradient(a, b, x, 1e-9, 2000);
  EXPECT_TRUE(r.converged);
  std::vector<double> ax;
  spmv(a, x, ax);
  for (std::size_t i = 0; i < a.n; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-6);
}

TEST(Sparse, CgIterationFlops) {
  EXPECT_DOUBLE_EQ(cg_iteration_flops(100, 500), 2.0 * 500 + 10.0 * 100);
}

TEST(Multigrid, VcycleReducesResidual) {
  const std::size_t n = 63;  // 2^6 - 1: coarsens to 31, 15, 7, 3
  Grid2D u(n, n, 0.0);
  Grid2D f(n, n, 1.0);
  const double h = 1.0 / (n + 1);
  const double r0 = mg_residual_norm(u, f, h);
  double r = r0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    r = mg_vcycle(u, f, h, 3);
  }
  EXPECT_LT(r, r0 * 0.05);
}

TEST(Multigrid, VcycleConvergesGeometrically) {
  const std::size_t n = 31;
  Grid2D u(n, n, 0.0);
  Grid2D f(n, n, 1.0);
  const double h = 1.0 / (n + 1);
  const double r1 = mg_vcycle(u, f, h, 3);
  const double r2 = mg_vcycle(u, f, h, 3);
  EXPECT_LT(r2, r1 * 0.7);  // healthy V-cycle contraction
}

TEST(Multigrid, LevelsComputed) {
  EXPECT_EQ(mg_levels(63, 3), 5);  // 63→31→15→7→3
  EXPECT_EQ(mg_levels(3, 3), 1);
}

TEST(Multigrid, RejectsEvenGrids) {
  Grid2D u(64, 64, 0.0);
  Grid2D f(64, 64, 1.0);
  EXPECT_THROW(mg_vcycle(u, f, 0.01, 4), Error);
}

TEST(Dnn, ConvOutputShape) {
  const Tensor in(3, 11, 11, 1.0f);
  const Tensor out = conv2d(in, 8, 3, 2, 42);
  EXPECT_EQ(out.channels, 8u);
  EXPECT_EQ(out.height, 5u);
  EXPECT_EQ(out.width, 5u);
}

TEST(Dnn, ReluClampsNegatives) {
  Tensor t(1, 2, 2);
  t.data = {-1.0f, 2.0f, -3.0f, 4.0f};
  relu(t);
  EXPECT_FLOAT_EQ(t.data[0], 0.0f);
  EXPECT_FLOAT_EQ(t.data[1], 2.0f);
}

TEST(Dnn, MaxpoolPicksMaxima) {
  Tensor t(1, 2, 2);
  t.data = {1.0f, 5.0f, 3.0f, 2.0f};
  const Tensor out = maxpool(t, 2);
  EXPECT_FLOAT_EQ(out.data[0], 5.0f);
}

TEST(Dnn, SoftmaxIsDistribution) {
  const auto p = softmax({1.0f, 2.0f, 3.0f});
  float sum = 0.0f;
  for (float v : p) sum += v;
  EXPECT_NEAR(sum, 1.0f, 1e-6);
  EXPECT_GT(p[2], p[0]);
}

TEST(Dnn, NetworkFlopsMatchPublishedScale) {
  // AlexNet forward ≈ 2.3 GFLOPs (2 FLOPs per MAC accounting);
  // GoogLeNet ≈ 3-4 GFLOPs.
  const double alex = network_flops(alexnet_layers());
  const double goog = network_flops(googlenet_layers());
  EXPECT_GT(alex, 1.5e9);
  EXPECT_LT(alex, 3.5e9);
  EXPECT_GT(goog, 2.0e9);
  EXPECT_LT(goog, 5.0e9);
  EXPECT_GT(goog, alex);
}

TEST(Dnn, GoogLeNetHasManyMoreKernels) {
  // ~8 launches for AlexNet vs ~58 for GoogLeNet — the launch-overhead
  // difference behind their different GPU utilization.
  EXPECT_EQ(alexnet_layers().size(), 8u);
  EXPECT_GT(googlenet_layers().size(), 50u);
}

TEST(Dnn, EndToEndTinyForwardPass) {
  // A miniature 2-layer network end-to-end on real arithmetic.
  Tensor img(3, 16, 16);
  for (std::size_t i = 0; i < img.data.size(); ++i) {
    img.data[i] = static_cast<float>(i % 13) / 13.0f;
  }
  Tensor c1 = conv2d(img, 4, 3, 1, 1);
  relu(c1);
  const Tensor p1 = maxpool(c1, 2);
  const auto logits = fully_connected(p1, 10, 2);
  const auto probs = softmax(logits);
  EXPECT_EQ(probs.size(), 10u);
  float sum = 0.0f;
  for (float v : probs) sum += v;
  EXPECT_NEAR(sum, 1.0f, 1e-5);
}

}  // namespace
}  // namespace soc::workloads::kernels
