// Sparse linear algebra: CSR matrices, the 5-point Laplacian TeaLeaf
// solves with, and conjugate gradient.  examples/poisson_solver runs
// them; the tealeaf and cg workload generators state their own FLOP,
// byte and message counts and call none of this.
#pragma once

#include <cstddef>
#include <vector>

namespace soc::workloads::kernels {

/// Compressed-sparse-row matrix.
struct CsrMatrix {
  std::size_t n = 0;
  std::vector<std::size_t> row_start;  ///< n+1 entries.
  std::vector<std::size_t> col;
  std::vector<double> val;

  std::size_t nonzeros() const { return val.size(); }
};

/// 5-point Laplacian (I − σ∇²) for an nx×ny grid — TeaLeaf's 2D operator.
CsrMatrix make_laplacian_2d(std::size_t nx, std::size_t ny, double sigma);

/// y = A·x.
void spmv(const CsrMatrix& a, const std::vector<double>& x,
          std::vector<double>& y);

struct CgResult {
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// Conjugate gradient for A x = b (A SPD).  x holds the initial guess on
/// entry and the solution on exit.
CgResult conjugate_gradient(const CsrMatrix& a, const std::vector<double>& b,
                            std::vector<double>& x, double tolerance,
                            int max_iterations);

/// FLOPs of one CG iteration on a matrix with nnz nonzeros and n rows:
/// one SpMV (2·nnz) plus two dots and three axpys (10·n).
double cg_iteration_flops(double n, double nnz);

}  // namespace soc::workloads::kernels
