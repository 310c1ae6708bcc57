#include "workloads/kernels/stencil.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace soc::workloads::kernels {

Grid2D::Grid2D(std::size_t nx_, std::size_t ny_, double fill)
    : nx(nx_), ny(ny_), v((nx_ + 2) * (ny_ + 2), fill) {
  SOC_CHECK(nx_ > 0 && ny_ > 0, "empty grid");
}

double& Grid2D::at(std::size_t i, std::size_t j) {
  return v[i * (ny + 2) + j];
}

double Grid2D::at(std::size_t i, std::size_t j) const {
  return v[i * (ny + 2) + j];
}

double jacobi_sweep(const Grid2D& in, const Grid2D& f, double h, Grid2D& out) {
  SOC_CHECK(in.nx == out.nx && in.ny == out.ny, "grid shape mismatch");
  SOC_CHECK(in.nx == f.nx && in.ny == f.ny, "rhs shape mismatch");
  double max_delta = 0.0;
  const double h2 = h * h;
  for (std::size_t i = 1; i <= in.nx; ++i) {
    for (std::size_t j = 1; j <= in.ny; ++j) {
      const double updated =
          0.25 * (in.at(i - 1, j) + in.at(i + 1, j) + in.at(i, j - 1) +
                  in.at(i, j + 1) - h2 * f.at(i, j));
      max_delta = std::max(max_delta, std::fabs(updated - in.at(i, j)));
      out.at(i, j) = updated;
    }
  }
  return max_delta;
}

int jacobi_solve(Grid2D& u, const Grid2D& f, double h, double tol,
                 int max_iterations) {
  Grid2D next = u;
  for (int it = 1; it <= max_iterations; ++it) {
    const double delta = jacobi_sweep(u, f, h, next);
    std::swap(u.v, next.v);
    if (delta < tol) return it;
  }
  return max_iterations;
}

double jacobi_flops_per_point() { return 6.0; }  // 4 adds, 1 sub/fma, 1 mul

}  // namespace soc::workloads::kernels
