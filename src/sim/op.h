// Operation model.
//
// A workload is lowered (by workloads/ + msg/) into one `Program` per MPI
// rank: a flat sequence of ops.  The same programs are replayed by the
// engine under different machine models and scenarios — this mirrors the
// paper's Extrae-trace + DIMEMAS-replay methodology, where one recorded
// trace is re-simulated under real, ideal-network, and ideal-load-balance
// conditions.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace soc::sim {

enum class OpKind : std::uint8_t {
  kCpuCompute,  ///< Host computation on the rank's core.
  kGpuKernel,   ///< GPGPU kernel launch + synchronization.
  kCopyH2D,     ///< Host-to-device copy (explicit cudaMemcpy-style).
  kCopyD2H,     ///< Device-to-host copy.
  kSend,        ///< Blocking message send to `peer`.
  kRecv,        ///< Blocking message receive from `peer`.
  kIsend,       ///< Non-blocking (buffered) send; completes at kWaitAll.
  kIrecv,       ///< Non-blocking receive; completes at kWaitAll.
  kWaitAll,     ///< Blocks until every outstanding Isend/Irecv completed.
  kPhase,       ///< Marks the start of iteration phase `phase` (zero cost).
  kDelay,       ///< Fixed-duration host stall of `delay_seconds` (fault
                ///< downtime, OS noise, checkpoint I/O — scenario streams).
};

/// Short stable identifier for an op kind ("cpu", "gpu", "h2d", "d2h",
/// "send", "recv", "isend", "irecv", "waitall", "phase", "delay") — the
/// soctrace verbs.  Observers and exporters key on these.
const char* op_kind_name(OpKind kind);

/// GPU memory-management model under which kernel/copy ops execute
/// (Section III-B.5 of the paper).
enum class MemModel : std::uint8_t {
  kHostDevice,  ///< Separate address spaces, explicit copies.
  kZeroCopy,    ///< Device threads read host memory; GPU cache bypassed.
  kUnified,     ///< Managed memory, transparent migration.
};

/// One operation in a rank's program.  Fields are meaningful per kind:
/// compute ops use instructions/flops/dram_bytes/profile; kernel ops use
/// flops/dram_bytes/mem_model; copies use bytes/mem_model; messages use
/// peer/bytes/tag.
struct Op {
  OpKind kind = OpKind::kCpuCompute;
  MemModel mem_model = MemModel::kHostDevice;
  bool double_precision = true;  ///< Kernel precision (DNNs run SP).
  std::int32_t phase = 0;
  std::int32_t peer = -1;   ///< Partner rank for send/recv.
  std::int32_t tag = 0;     ///< Message tag for matching.
  std::int32_t profile = -1;  ///< Microarchitectural profile id (CPU ops).
  double instructions = 0.0;  ///< Retired instructions (CPU ops).
  double flops = 0.0;         ///< Floating-point operations performed.
  double parallelism = 1e15;  ///< GPU thread-count hint (occupancy model).
  Bytes dram_bytes = 0;       ///< Main-memory traffic generated.
  Bytes bytes = 0;            ///< Message / copy size.
  /// Duration multiplier, applied by the engine AFTER cost evaluation (so
  /// memoized costs stay shared) to every op with a duration: compute,
  /// kernel, copy and kDelay; other ops ignore it.  The straggler
  /// decorator sets it on compute/kernel/copy ops, and the ideal-balance
  /// replay (trace/replay.h) multiplies it by its rank's balancing factor.
  double time_scale = 1.0;
  /// kDelay only: the stall duration in seconds.
  double delay_seconds = 0.0;
};

using Program = std::vector<Op>;

/// Convenience constructors keep workload generators readable.
Op cpu_op(double instructions, double flops, Bytes dram_bytes, int profile,
          int phase = 0);
Op gpu_op(double flops, Bytes dram_bytes, MemModel mm, int phase = 0,
          double parallelism = 1e15, bool double_precision = true);
Op copy_h2d_op(Bytes bytes, MemModel mm, int phase = 0);
Op copy_d2h_op(Bytes bytes, MemModel mm, int phase = 0);
Op send_op(int peer, Bytes bytes, int tag, int phase = 0);
Op recv_op(int peer, Bytes bytes, int tag, int phase = 0);
Op isend_op(int peer, Bytes bytes, int tag, int phase = 0);
Op irecv_op(int peer, Bytes bytes, int tag, int phase = 0);
Op wait_all_op(int phase = 0);
Op phase_op(int phase);
Op delay_op(double seconds, int phase = 0);

}  // namespace soc::sim
