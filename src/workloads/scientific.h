// ClusterSoCBench scientific workloads (Table I): hpl, jacobi, cloverleaf,
// tealeaf2d, tealeaf3d.
//
// Each generator mirrors the published benchmark's structure — panel
// broadcasts and trailing GEMM updates for hpl, halo exchanges plus
// residual reductions for the stencil codes, CG inner loops with dot-
// product allreduces for tealeaf — with per-node FLOP/DRAM/network volumes
// derived from the algorithm and calibrated to the TX1's measured
// intensities (see DESIGN.md §7 and EXPERIMENTS.md).  One MPI rank drives
// each node's GPU, as in the paper.
#pragma once

#include <string>
#include <vector>

#include "workloads/workload.h"

namespace soc::workloads {

/// High-performance Linpack, GPU-accelerated trailing updates.
class HplWorkload : public Workload {
 public:
  /// `n` is the global matrix order; `nb` the panel width.
  explicit HplWorkload(std::size_t n = 28672, std::size_t nb = 512);

  std::string name() const override { return "hpl"; }
  bool gpu_accelerated() const override { return true; }
  arch::WorkloadProfile cpu_profile() const override;
  std::unique_ptr<WorkloadCursor> cursor(
      const BuildContext& ctx) const override;

 private:
  std::size_t n_;
  std::size_t nb_;
};

/// Jacobi Poisson solver on a square grid, 1D slab decomposition.
class JacobiWorkload : public Workload {
 public:
  explicit JacobiWorkload(std::size_t grid = 16384, int iterations = 1500);

  std::string name() const override { return "jacobi"; }
  bool gpu_accelerated() const override { return true; }
  arch::WorkloadProfile cpu_profile() const override;
  std::unique_ptr<WorkloadCursor> cursor(
      const BuildContext& ctx) const override;

 private:
  std::size_t grid_;
  int iterations_;
};

/// CloverLeaf: explicit compressible Euler, many kernels per step with
/// host work between them (the Ser-heavy code of Fig 5).
class CloverLeafWorkload : public Workload {
 public:
  explicit CloverLeafWorkload(std::size_t grid = 8192, int steps = 500);

  std::string name() const override { return "cloverleaf"; }
  bool gpu_accelerated() const override { return true; }
  arch::WorkloadProfile cpu_profile() const override;
  std::unique_ptr<WorkloadCursor> cursor(
      const BuildContext& ctx) const override;

 private:
  std::size_t grid_;
  int steps_;
};

/// TeaLeaf linear heat conduction solved by CG (2D and 3D variants).
class TeaLeafWorkload : public Workload {
 public:
  /// dims = 2 or 3; `extent` is the per-dimension grid size.
  TeaLeafWorkload(int dims, std::size_t extent, int timesteps,
                  int cg_iterations);

  std::string name() const override {
    return dims_ == 2 ? "tealeaf2d" : "tealeaf3d";
  }
  bool gpu_accelerated() const override { return true; }
  arch::WorkloadProfile cpu_profile() const override;
  std::unique_ptr<WorkloadCursor> cursor(
      const BuildContext& ctx) const override;

 private:
  int dims_;
  std::size_t extent_;
  int timesteps_;
  int cg_iterations_;
};

/// Paper-default TeaLeaf instances.
TeaLeafWorkload tealeaf2d_default();
TeaLeafWorkload tealeaf3d_default();

/// Deterministic per-rank load-imbalance multiplier in
/// [1−amount, 1+amount], keyed by workload name and rank.
double imbalance_factor(const std::string& workload, int rank, double amount);

/// imbalance_factor of ranks 0 .. count−1, computed once for a cursor.
std::vector<double> imbalance_factors(const std::string& workload, int count,
                                      double amount);

}  // namespace soc::workloads
