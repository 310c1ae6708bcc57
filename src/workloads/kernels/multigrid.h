// Geometric multigrid V-cycle, the third solver examples/poisson_solver
// compares.
//
// Standard components on a square grid: damped-Jacobi smoothing,
// full-weighting restriction, bilinear prolongation.  The NPB mg workload
// generator models the same level structure (halo sizes halving per
// level) without calling this kernel.
#pragma once

#include "workloads/kernels/stencil.h"

namespace soc::workloads::kernels {

/// One V-cycle for ∇²u = f on a vertex-centered grid; nx, ny must be odd
/// (2^k − 1 coarsens all the way down).  Returns the residual L2 norm
/// after the cycle.
double mg_vcycle(Grid2D& u, const Grid2D& f, double h, std::size_t min_size,
                 int pre_smooth = 2, int post_smooth = 2);

/// Residual L2 norm ‖f − ∇²u‖ (helper exposed for tests).
double mg_residual_norm(const Grid2D& u, const Grid2D& f, double h);

/// Number of multigrid levels for an n×n fine grid down to min_size.
int mg_levels(std::size_t n, std::size_t min_size);

}  // namespace soc::workloads::kernels
