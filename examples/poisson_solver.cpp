// Poisson solver walkthrough: the same problem solved three ways with the
// library's functional kernels — Jacobi iteration, conjugate gradient on
// the 5-point operator, and geometric multigrid — then projected onto the
// simulated cluster to estimate time-to-solution at several node counts.
//
// The kernels compute real solutions; the projection does not run them.
// The jacobi workload generator states its own FLOP and byte counts, so
// the first table's work units and the second table's runtimes come from
// separate models.
//
//   $ ./build/examples/poisson_solver
#include <cmath>
#include <cstdio>

#include "cluster/cluster.h"
#include "common/table.h"
#include "net/network.h"
#include "systems/machines.h"
#include "workloads/kernels/multigrid.h"
#include "workloads/kernels/sparse.h"
#include "workloads/kernels/stencil.h"
#include "workloads/scientific.h"

int main() {
  using namespace soc;
  using namespace soc::workloads::kernels;

  const std::size_t n = 63;  // 2^6 - 1 so multigrid coarsens fully
  const double h = 1.0 / (n + 1);

  std::printf("Solving the Poisson equation on a %zux%zu grid three ways\n\n",
              n, n);
  TextTable table({"method", "iterations", "work units", "residual"});

  // 1. Jacobi (the algorithm the jacobi workload models).
  {
    Grid2D u(n, n, 0.0);
    Grid2D f(n, n, 1.0);
    const int iters = jacobi_solve(u, f, h, 1e-7, 50'000);
    table.add_row({"jacobi", std::to_string(iters),
                   TextTable::num(jacobi_flops_per_point() *
                                      static_cast<double>(n * n) * iters / 1e6,
                                  1) + " MFLOP",
                   "(update < 1e-7)"});
  }

  // 2. Conjugate gradient on the 5-point operator (tealeaf's solver).
  {
    const CsrMatrix a = make_laplacian_2d(n, n, 1.0);
    std::vector<double> b(a.n, h * h);
    std::vector<double> x(a.n, 0.0);
    const CgResult r = conjugate_gradient(a, b, x, 1e-10, 2000);
    table.add_row({"conjugate gradient", std::to_string(r.iterations),
                   TextTable::num(cg_iteration_flops(
                                      static_cast<double>(a.n),
                                      static_cast<double>(a.nonzeros())) *
                                      r.iterations / 1e6,
                                  1) + " MFLOP",
                   TextTable::eng(r.residual_norm)});
  }

  // 3. Geometric multigrid (NPB mg's algorithm).
  {
    Grid2D u(n, n, 0.0);
    Grid2D f(n, n, 1.0);
    int cycles = 0;
    double r = mg_residual_norm(u, f, h);
    const double target = r * 1e-8;
    while (r > target && cycles < 30) {
      r = mg_vcycle(u, f, h, 3);
      ++cycles;
    }
    table.add_row({"multigrid V-cycles", std::to_string(cycles),
                   std::to_string(mg_levels(n, 3)) + " levels",
                   TextTable::eng(r)});
  }
  std::printf("%s\n", table.str().c_str());

  // Project the full-size jacobi workload onto clusters of several sizes.
  std::printf("Projected time-to-solution for the paper-scale jacobi run\n");
  TextTable proj({"nodes", "NIC", "runtime (s)", "GFLOP/s", "MFLOPS/W"});
  const workloads::JacobiWorkload jacobi;
  cluster::RunRequest request;
  request.workload_ref = &jacobi;
  for (int nodes : {2, 8, 16}) {
    for (net::NicKind nic :
         {net::NicKind::kGigabit, net::NicKind::kTenGigabit}) {
      request.config = {systems::jetson_tx1(nic), nodes, nodes};
      const auto result = cluster::run(request);
      proj.add_row({std::to_string(nodes),
                    nic == net::NicKind::kGigabit ? "1GbE" : "10GbE",
                    TextTable::num(result.seconds, 1),
                    TextTable::num(result.gflops, 1),
                    TextTable::num(result.mflops_per_watt, 0)});
    }
  }
  std::printf("%s", proj.str().c_str());
  return 0;
}
