#include "workloads/kernels/sparse.h"

#include <cmath>

#include "common/error.h"

namespace soc::workloads::kernels {

CsrMatrix make_laplacian_2d(std::size_t nx, std::size_t ny, double sigma) {
  SOC_CHECK(nx > 0 && ny > 0, "empty grid");
  SOC_CHECK(sigma > 0.0, "sigma must be positive");
  CsrMatrix m;
  m.n = nx * ny;
  m.row_start.reserve(m.n + 1);
  m.row_start.push_back(0);
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      const std::size_t row = i * ny + j;
      // (I − σ∇²) with Dirichlet boundaries: diagonal 1+4σ, neighbours −σ.
      auto push = [&](std::size_t c, double v) {
        m.col.push_back(c);
        m.val.push_back(v);
      };
      if (i > 0) push(row - ny, -sigma);
      if (j > 0) push(row - 1, -sigma);
      push(row, 1.0 + 4.0 * sigma);
      if (j + 1 < ny) push(row + 1, -sigma);
      if (i + 1 < nx) push(row + ny, -sigma);
      m.row_start.push_back(m.col.size());
    }
  }
  return m;
}

void spmv(const CsrMatrix& a, const std::vector<double>& x,
          std::vector<double>& y) {
  SOC_CHECK(x.size() == a.n, "spmv size mismatch");
  y.assign(a.n, 0.0);
  for (std::size_t r = 0; r < a.n; ++r) {
    double s = 0.0;
    for (std::size_t k = a.row_start[r]; k < a.row_start[r + 1]; ++k) {
      s += a.val[k] * x[a.col[k]];
    }
    y[r] = s;
  }
}

namespace {
double vdot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}
}  // namespace

CgResult conjugate_gradient(const CsrMatrix& a, const std::vector<double>& b,
                            std::vector<double>& x, double tolerance,
                            int max_iterations) {
  SOC_CHECK(b.size() == a.n && x.size() == a.n, "cg size mismatch");
  std::vector<double> r(a.n);
  std::vector<double> ap(a.n);
  spmv(a, x, ap);
  for (std::size_t i = 0; i < a.n; ++i) r[i] = b[i] - ap[i];
  std::vector<double> p = r;
  double rr = vdot(r, r);

  CgResult result;
  const double tol2 = tolerance * tolerance;
  for (result.iterations = 0; result.iterations < max_iterations;
       ++result.iterations) {
    if (rr <= tol2) {
      result.converged = true;
      break;
    }
    spmv(a, p, ap);
    const double alpha = rr / vdot(p, ap);
    for (std::size_t i = 0; i < a.n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rr_next = vdot(r, r);
    const double beta = rr_next / rr;
    for (std::size_t i = 0; i < a.n; ++i) p[i] = r[i] + beta * p[i];
    rr = rr_next;
  }
  result.residual_norm = std::sqrt(rr);
  return result;
}

double cg_iteration_flops(double n, double nnz) {
  return 2.0 * nnz + 10.0 * n;
}

}  // namespace soc::workloads::kernels
