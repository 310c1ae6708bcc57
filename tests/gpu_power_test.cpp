// Tests for gpu/ (device model, memory-management models) and
// power/ (energy metering).
#include <gtest/gtest.h>

#include "common/error.h"
#include "gpu/device.h"
#include "power/power_model.h"
#include "sim/engine.h"

namespace soc {
namespace {

TEST(GpuDevice, PeakFlopsMatchSpecSheets) {
  const gpu::DeviceConfig tx1 = gpu::tx1_gpu();
  // 256 CUDA cores × 2 FLOP × 0.998 GHz ≈ 511 GFLOPS SP; DP = 1/32.
  EXPECT_NEAR(tx1.peak_sp_flops() / 1e9, 511.0, 2.0);
  EXPECT_NEAR(tx1.peak_dp_flops() / 1e9, 511.0 / 32.0, 0.1);

  const gpu::DeviceConfig gtx = gpu::gtx980_gpu();
  // 2048 cores × 2 × 1.216 GHz ≈ 4981 GFLOPS SP.
  EXPECT_NEAR(gtx.peak_sp_flops() / 1e9, 4981.0, 20.0);
  EXPECT_GT(gtx.memory_bandwidth, tx1.memory_bandwidth);
}

TEST(GpuDevice, ComputeBoundKernelScalesWithFlops) {
  const gpu::DeviceConfig d = gpu::tx1_gpu();
  const SimTime t1 =
      gpu::kernel_duration(d, 1e9, 1024, sim::MemModel::kHostDevice);
  const SimTime t2 =
      gpu::kernel_duration(d, 2e9, 1024, sim::MemModel::kHostDevice);
  EXPECT_GT(t2, t1);
  // Roughly linear once launch overhead is subtracted.
  const double exec1 = static_cast<double>(t1 - d.launch_overhead);
  const double exec2 = static_cast<double>(t2 - d.launch_overhead);
  EXPECT_NEAR(exec2 / exec1, 2.0, 0.05);
}

TEST(GpuDevice, MemoryBoundKernelScalesWithBytes) {
  const gpu::DeviceConfig d = gpu::tx1_gpu();
  const SimTime t1 = gpu::kernel_duration(d, 1e6, 1 * kGB,
                                          sim::MemModel::kHostDevice);
  const SimTime t2 = gpu::kernel_duration(d, 1e6, 2 * kGB,
                                          sim::MemModel::kHostDevice);
  const double exec1 = static_cast<double>(t1 - d.launch_overhead);
  const double exec2 = static_cast<double>(t2 - d.launch_overhead);
  EXPECT_NEAR(exec2 / exec1, 2.0, 0.05);
}

TEST(GpuDevice, SinglePrecisionFasterThanDouble) {
  const gpu::DeviceConfig d = gpu::tx1_gpu();
  const SimTime dp = gpu::kernel_duration(d, 1e10, 0, sim::MemModel::kHostDevice,
                                          /*double_precision=*/true);
  const SimTime sp = gpu::kernel_duration(d, 1e10, 0, sim::MemModel::kHostDevice,
                                          /*double_precision=*/false);
  EXPECT_GT(dp, sp);
}

TEST(GpuDevice, ZeroCopySlowerThanHostDevice) {
  // Table III: zero-copy bypasses the L2 on the TX1: ~2.5x on a
  // memory-bound kernel.
  const gpu::DeviceConfig d = gpu::tx1_gpu();
  const SimTime hd = gpu::kernel_duration(d, 1e6, 1 * kGB,
                                          sim::MemModel::kHostDevice);
  const SimTime zc = gpu::kernel_duration(d, 1e6, 1 * kGB,
                                          sim::MemModel::kZeroCopy);
  const double ratio = static_cast<double>(zc) / static_cast<double>(hd);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 3.2);
}

TEST(GpuDevice, UnifiedCloseToHostDevice) {
  const gpu::DeviceConfig d = gpu::tx1_gpu();
  const SimTime hd = gpu::kernel_duration(d, 1e6, 1 * kGB,
                                          sim::MemModel::kHostDevice);
  const SimTime um = gpu::kernel_duration(d, 1e6, 1 * kGB,
                                          sim::MemModel::kUnified);
  const double ratio = static_cast<double>(um) / static_cast<double>(hd);
  EXPECT_GT(ratio, 1.0);
  EXPECT_LT(ratio, 1.15);
}

TEST(GpuDevice, LowParallelismUnderutilizesBigGpu) {
  // A kernel with few threads runs proportionally slower on the GTX 980
  // but still saturates the tiny TX1 GPU — the Fig 9/10 balance effect.
  const gpu::DeviceConfig tx1 = gpu::tx1_gpu();
  const gpu::DeviceConfig gtx = gpu::gtx980_gpu();
  const double small_parallelism = 2048;  // fills TX1, 12.5% of GTX
  const SimTime tx1_t = gpu::kernel_duration(
      tx1, 1e9, 0, sim::MemModel::kHostDevice, false, small_parallelism);
  const SimTime tx1_full = gpu::kernel_duration(
      tx1, 1e9, 0, sim::MemModel::kHostDevice, false, 1e9);
  const SimTime gtx_t = gpu::kernel_duration(
      gtx, 1e9, 0, sim::MemModel::kHostDevice, false, small_parallelism);
  const SimTime gtx_full = gpu::kernel_duration(
      gtx, 1e9, 0, sim::MemModel::kHostDevice, false, 1e9);
  EXPECT_EQ(tx1_t, tx1_full);  // TX1 already saturated
  EXPECT_GT(gtx_t, gtx_full);  // GTX leaves SMs idle
}

TEST(GpuDevice, CharacterizeZeroCopyBypassesL2) {
  const gpu::DeviceConfig d = gpu::tx1_gpu();
  const gpu::KernelMetrics cached = gpu::characterize_kernel(
      d, 1e8, 100 * kMB, 32 * kMB, sim::MemModel::kHostDevice);
  const gpu::KernelMetrics bypass = gpu::characterize_kernel(
      d, 1e8, 100 * kMB, 32 * kMB, sim::MemModel::kZeroCopy);
  EXPECT_GT(cached.l2_hit_ratio, 0.1);
  EXPECT_DOUBLE_EQ(bypass.l2_hit_ratio, 0.0);
  EXPECT_DOUBLE_EQ(bypass.l2_read_throughput, 0.0);
  EXPECT_GE(bypass.memory_stall_fraction, cached.memory_stall_fraction);
}

TEST(GpuDevice, RejectsNegativeWork) {
  const gpu::DeviceConfig d = gpu::tx1_gpu();
  EXPECT_THROW(gpu::kernel_duration(d, -1.0, 0, sim::MemModel::kHostDevice),
               Error);
}

// --- power ---

sim::RunStats one_second_run(double cpu_busy_s, double gpu_busy_s) {
  sim::RunStats stats;
  stats.makespan = kSecond;
  stats.ranks.resize(1);
  stats.nodes.resize(1);
  auto& tl = stats.nodes[0];
  tl.cpu_busy.assign(10, cpu_busy_s / 10.0);
  tl.gpu_busy.assign(10, gpu_busy_s / 10.0);
  tl.nic_busy.assign(10, 0.0);
  tl.dram_bytes.assign(10, 0.0);
  return stats;
}

TEST(Power, IdleNodeDrawsBasePower) {
  power::NodePowerConfig node;
  node.idle_w = 4.0;
  node.nic_idle_w = 1.0;
  node.host_overhead_w = 1.0;
  const power::EnergyReport r =
      power::measure_energy(one_second_run(0.0, 0.0), node, 4);
  EXPECT_NEAR(r.joules, 6.0, 1e-9);
  EXPECT_NEAR(r.average_watts, 6.0, 1e-9);
}

TEST(Power, BusyComponentsAddPower) {
  power::NodePowerConfig node;
  node.idle_w = 4.0;
  node.cpu_core_active_w = 2.0;
  node.gpu_active_w = 8.0;
  node.nic_idle_w = 0.0;
  node.host_overhead_w = 0.0;
  // CPU fully busy (1 core) + GPU 50% busy for 1 s.
  const power::EnergyReport r =
      power::measure_energy(one_second_run(1.0, 0.5), node, 4);
  EXPECT_NEAR(r.joules, 4.0 + 2.0 + 4.0, 1e-9);
}

TEST(Power, SamplesCoverRuntime) {
  power::NodePowerConfig node;
  sim::RunStats stats = one_second_run(1.0, 0.0);
  stats.makespan = 3 * kSecond + 500 * kMillisecond;
  const power::EnergyReport r = power::measure_energy(stats, node, 4);
  EXPECT_EQ(r.samples_w.size(), 4u);  // ceil(3.5 s) at 1 Hz
  for (double w : r.samples_w) EXPECT_GE(w, 0.0);
}

TEST(Power, MflopsPerWatt) {
  power::EnergyReport r;
  r.joules = 100.0;
  // 1e9 FLOP / 100 J = 10 MFLOPS/W.
  EXPECT_NEAR(r.mflops_per_watt(1e9), 10.0, 1e-9);
}

TEST(Power, CpuUtilizationCappedAtCoreCount) {
  power::NodePowerConfig node;
  node.idle_w = 0.0;
  node.cpu_core_active_w = 1.0;
  node.nic_idle_w = 0.0;
  // Timeline claims 10 core-seconds per second on a 4-core node: capped.
  const power::EnergyReport r =
      power::measure_energy(one_second_run(10.0, 0.0), node, 4);
  EXPECT_NEAR(r.joules, 4.0, 1e-9);
}

TEST(Power, ZeroLengthRunIsZeroEnergy) {
  power::NodePowerConfig node;
  sim::RunStats stats;
  stats.makespan = 0;
  const power::EnergyReport r = power::measure_energy(stats, node, 4);
  EXPECT_DOUBLE_EQ(r.joules, 0.0);
}

}  // namespace
}  // namespace soc
