// Tables I, V, and VII: the paper's configuration tables, regenerated
// from this library's actual workload and machine definitions (so the
// documentation can never drift from the code).
#include <cstdio>

#include "bench_common.h"
#include "sim/engine.h"
#include "workloads/dnn_workloads.h"

namespace {

using namespace soc;

// Counts ops in a small-scale build to summarize each workload's shape.
struct Shape {
  std::size_t ops = 0;
  std::size_t messages = 0;
  std::size_t kernels = 0;
};

Shape shape_of(const workloads::Workload& w) {
  workloads::BuildContext ctx;
  ctx.nodes = 4;
  ctx.ranks = sweep::natural_ranks(w, 4);
  ctx.size_scale = 0.05;
  Shape s;
  for (const sim::Program& prog : w.build(ctx)) {
    s.ops += prog.size();
    for (const sim::Op& op : prog) {
      if (op.kind == sim::OpKind::kSend) ++s.messages;
      if (op.kind == sim::OpKind::kGpuKernel) ++s.kernels;
    }
  }
  return s;
}

void print_node(const systems::NodeConfig& n) {
  std::printf("  %-18s %d cores @ %.2f GHz, L1D %lld KiB, L2 %lld MiB",
              n.name.c_str(), n.cpu_cores, n.core.frequency_hz / 1e9,
              static_cast<long long>(n.core.l1d.size / kKiB),
              static_cast<long long>(n.core.l2.size / kMiB));
  if (n.has_gpu) {
    std::printf(", GPU %d SMs @ %.2f GHz (%.0f SP / %.0f DP GFLOPS)",
                n.gpu.sm_count, n.gpu.frequency_hz / 1e9,
                n.gpu.peak_sp_flops() / 1e9, n.gpu.peak_dp_flops() / 1e9);
  }
  std::printf(", DRAM %.0f GB/s, NIC %s\n", n.dram.gpu_bandwidth > 0
                                                ? n.dram.gpu_bandwidth / 1e9
                                                : n.dram.cpu_bandwidth / 1e9,
              n.nic.name.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::reject_arguments(argc, argv);
  std::printf("Table I: ClusterSoCBench + NPB workload summary\n\n");
  TextTable table({"tag", "kind", "comm structure", "ops@4n", "msgs",
                   "GPU kernels"});
  const char* comm[] = {
      "panel+U bcast, row swaps",     // hpl
      "1D halo + residual allreduce", // jacobi
      "multi-field halo + dt reduce", // cloverleaf
      "halo + 2 dots per CG step",    // tealeaf2d
      "face halo + 2 dots per CG step", // tealeaf3d
      "none (independent images)",    // alexnet
      "none (independent images)",    // googlenet
      "xyz face exchanges",           // bt
      "hypercube segs + dots",        // cg
      "terminal reduction only",      // ep
      "transpose all-to-all",         // ft
      "bucket all-to-all + reduce",   // is
      "SSOR wavefront pipeline",      // lu
      "per-level halos + reduce",     // mg
      "xyz face exchanges",           // sp
  };
  int i = 0;
  for (const std::string& name : workloads::list()) {
    const auto w = workloads::make_workload(name);
    const Shape s = shape_of(*w);
    table.add_row({name, w->gpu_accelerated() ? "CPU+GPU" : "CPU (NPB C)",
                   comm[i++], std::to_string(s.ops),
                   std::to_string(s.messages), std::to_string(s.kernels)});
  }
  std::printf("%s\n", table.str().c_str());
  soc::bench::write_artifact("table1_5_7_configs", table, "table1");

  std::printf("Table V: many-core ARM server vs cluster node\n");
  print_node(systems::thunderx_server());
  print_node(systems::jetson_tx1(net::NicKind::kTenGigabit));

  std::printf("\nTable VII: discrete vs SoC-class GPGPU\n");
  print_node(systems::xeon_gtx980());
  print_node(systems::jetson_tx1(net::NicKind::kTenGigabit));
  return 0;
}
