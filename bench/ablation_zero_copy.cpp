// Ablation (DESIGN.md §5.4): what if the TX1 could cache zero-copy
// accesses?  The paper confirmed with Nvidia that the GPU L2 is bypassed
// for coherency; this what-if re-runs Table III with a hypothetical
// device whose zero-copy path keeps the cache hierarchy.
#include <cstdio>

#include "bench_common.h"
#include "common/table.h"
#include "common/units.h"
#include "gpu/device.h"

int main(int argc, char** argv) {
  using namespace soc;
  bench::reject_arguments(argc, argv);
  // jacobi-like memory-bound kernel footprint (per node, 16-node run).
  const double flops = 6.0 * 16384.0 * 16384.0 / 16.0;
  const Bytes bytes = static_cast<Bytes>(flops / 0.25);

  gpu::DeviceConfig real = gpu::tx1_gpu();
  gpu::DeviceConfig hypothetical = real;
  // Cached zero-copy: no bandwidth waste, reuse still captured.
  hypothetical.bypass_bandwidth_factor = 1.0;
  hypothetical.l2_reuse_fraction = 0.0;  // bytes not inflated on bypass

  TextTable table({"device", "host+device (ms)", "zero-copy (ms)",
                   "zero-copy penalty"});
  for (const auto& [label, device] :
       {std::pair{"TX1 (real: L2 bypassed)", real},
        std::pair{"TX1 (hypothetical: cached)", hypothetical}}) {
    const double hd = to_seconds(gpu::kernel_duration(
                          device, flops, bytes, sim::MemModel::kHostDevice)) *
                      1e3;
    const double zc = to_seconds(gpu::kernel_duration(
                          device, flops, bytes, sim::MemModel::kZeroCopy)) *
                      1e3;
    table.add_row({label, TextTable::num(hd, 2), TextTable::num(zc, 2),
                   TextTable::num(zc / hd, 2) + "x"});
  }
  std::printf(
      "Ablation: zero-copy with and without the TX1's mandatory L2 "
      "bypass\n(a cached zero-copy path would make the model nearly free, "
      "matching\nwhat zero-copy was designed for on unified-memory SoCs)\n\n%s",
      table.str().c_str());
  return 0;
}
