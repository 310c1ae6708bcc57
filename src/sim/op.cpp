#include "sim/op.h"

namespace soc::sim {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kCpuCompute: return "cpu";
    case OpKind::kGpuKernel: return "gpu";
    case OpKind::kCopyH2D: return "h2d";
    case OpKind::kCopyD2H: return "d2h";
    case OpKind::kSend: return "send";
    case OpKind::kRecv: return "recv";
    case OpKind::kIsend: return "isend";
    case OpKind::kIrecv: return "irecv";
    case OpKind::kWaitAll: return "waitall";
    case OpKind::kPhase: return "phase";
    case OpKind::kDelay: return "delay";
  }
  return "?";
}

Op cpu_op(double instructions, double flops, Bytes dram_bytes, int profile,
          int phase) {
  Op op;
  op.kind = OpKind::kCpuCompute;
  op.instructions = instructions;
  op.flops = flops;
  op.dram_bytes = dram_bytes;
  op.profile = profile;
  op.phase = phase;
  return op;
}

Op gpu_op(double flops, Bytes dram_bytes, MemModel mm, int phase,
          double parallelism, bool double_precision) {
  Op op;
  op.kind = OpKind::kGpuKernel;
  op.flops = flops;
  op.dram_bytes = dram_bytes;
  op.mem_model = mm;
  op.phase = phase;
  op.parallelism = parallelism;
  op.double_precision = double_precision;
  return op;
}

Op copy_h2d_op(Bytes bytes, MemModel mm, int phase) {
  Op op;
  op.kind = OpKind::kCopyH2D;
  op.bytes = bytes;
  op.mem_model = mm;
  op.phase = phase;
  return op;
}

Op copy_d2h_op(Bytes bytes, MemModel mm, int phase) {
  Op op;
  op.kind = OpKind::kCopyD2H;
  op.bytes = bytes;
  op.mem_model = mm;
  op.phase = phase;
  return op;
}

Op send_op(int peer, Bytes bytes, int tag, int phase) {
  Op op;
  op.kind = OpKind::kSend;
  op.peer = peer;
  op.bytes = bytes;
  op.tag = tag;
  op.phase = phase;
  return op;
}

Op recv_op(int peer, Bytes bytes, int tag, int phase) {
  Op op;
  op.kind = OpKind::kRecv;
  op.peer = peer;
  op.bytes = bytes;
  op.tag = tag;
  op.phase = phase;
  return op;
}

Op isend_op(int peer, Bytes bytes, int tag, int phase) {
  Op op = send_op(peer, bytes, tag, phase);
  op.kind = OpKind::kIsend;
  return op;
}

Op irecv_op(int peer, Bytes bytes, int tag, int phase) {
  Op op = recv_op(peer, bytes, tag, phase);
  op.kind = OpKind::kIrecv;
  return op;
}

Op wait_all_op(int phase) {
  Op op;
  op.kind = OpKind::kWaitAll;
  op.phase = phase;
  return op;
}

Op phase_op(int phase) {
  Op op;
  op.kind = OpKind::kPhase;
  op.phase = phase;
  return op;
}

Op delay_op(double seconds, int phase) {
  Op op;
  op.kind = OpKind::kDelay;
  op.delay_seconds = seconds;
  op.phase = phase;
  return op;
}

}  // namespace soc::sim
