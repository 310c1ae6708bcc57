// Jacobi relaxation for the Poisson equation on a structured grid, and
// the grid type multigrid.h shares.  examples/poisson_solver runs it; no
// workload generator does (the jacobi model states its own FLOP and byte
// counts).
#pragma once

#include <cstddef>
#include <vector>

namespace soc::workloads::kernels {

/// Simple row-major 2D grid with a one-cell halo.
struct Grid2D {
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::vector<double> v;  ///< (nx+2) × (ny+2)

  Grid2D() = default;
  Grid2D(std::size_t nx_, std::size_t ny_, double fill = 0.0);
  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;
};

/// One Jacobi sweep for ∇²u = f on the unit square; returns the max
/// pointwise update (converges to 0).  `out` must match `in`'s shape.
double jacobi_sweep(const Grid2D& in, const Grid2D& f, double h, Grid2D& out);

/// Solves ∇²u = f by Jacobi iteration until the update drops below tol;
/// returns iterations used (capped at max_iterations).
int jacobi_solve(Grid2D& u, const Grid2D& f, double h, double tol,
                 int max_iterations);

/// FLOPs per interior grid point of one Jacobi sweep (5-point stencil).
double jacobi_flops_per_point();

}  // namespace soc::workloads::kernels
