#include "sim/memo_cost.h"

#include <bit>

#include "common/hash.h"

namespace soc::sim {

namespace {

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t pack_path(int src_node, int dst_node) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_node))
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_node));
}

}  // namespace

std::uint64_t MemoCostModel::CpuKeyHash::operator()(const CpuKey& k) const {
  return Fnv1a{}
      .mix_u64(k.instructions_bits)
      .mix_u64(k.flops_bits)
      .mix_i64(k.dram_bytes)
      .mix_u64(static_cast<std::uint32_t>(k.profile))
      .value();
}

std::uint64_t MemoCostModel::GpuKeyHash::operator()(const GpuKey& k) const {
  return Fnv1a{}
      .mix_u64(k.flops_bits)
      .mix_u64(k.parallelism_bits)
      .mix_i64(k.dram_bytes)
      .mix_byte(k.mem_model)
      .mix_byte(k.double_precision ? 1 : 0)
      .value();
}

std::uint64_t MemoCostModel::CopyKeyHash::operator()(const CopyKey& k) const {
  return Fnv1a{}
      .mix_i64(k.bytes)
      .mix_byte(k.kind)
      .mix_byte(k.mem_model)
      .value();
}

std::uint64_t MemoCostModel::TransferKeyHash::operator()(
    const TransferKey& k) const {
  return Fnv1a{}.mix_u64(k.path).mix_i64(k.bytes).value();
}

MemoCostModel::MemoCostModel(const CostModel& base) : base_(base) {}

SimTime MemoCostModel::cpu_compute_time(int rank, const Op& op) const {
  const CpuKey key{double_bits(op.instructions), double_bits(op.flops),
                   op.dram_bytes, op.profile};
  Slot& slot = cpu_[key];
  if (!slot.known) {
    slot.value = base_.cpu_compute_time(rank, op);
    slot.known = true;
    ++misses_;
  } else {
    ++hits_;
  }
  return slot.value;
}

SimTime MemoCostModel::gpu_kernel_time(int rank, const Op& op) const {
  const GpuKey key{double_bits(op.flops), double_bits(op.parallelism),
                   op.dram_bytes, static_cast<std::uint8_t>(op.mem_model),
                   op.double_precision};
  Slot& slot = gpu_[key];
  if (!slot.known) {
    slot.value = base_.gpu_kernel_time(rank, op);
    slot.known = true;
    ++misses_;
  } else {
    ++hits_;
  }
  return slot.value;
}

SimTime MemoCostModel::copy_time(int rank, const Op& op) const {
  const CopyKey key{op.bytes, static_cast<std::uint8_t>(op.kind),
                    static_cast<std::uint8_t>(op.mem_model)};
  Slot& slot = copy_[key];
  if (!slot.known) {
    slot.value = base_.copy_time(rank, op);
    slot.known = true;
    ++misses_;
  } else {
    ++hits_;
  }
  return slot.value;
}

SimTime MemoCostModel::message_latency(int src_node, int dst_node) const {
  Slot& slot = latency_[pack_path(src_node, dst_node)];
  if (!slot.known) {
    slot.value = base_.message_latency(src_node, dst_node);
    slot.known = true;
    ++misses_;
  } else {
    ++hits_;
  }
  return slot.value;
}

SimTime MemoCostModel::message_transfer_time(int src_node, int dst_node,
                                             Bytes bytes) const {
  const TransferKey key{pack_path(src_node, dst_node), bytes};
  Slot& slot = transfer_[key];
  if (!slot.known) {
    slot.value = base_.message_transfer_time(src_node, dst_node, bytes);
    slot.known = true;
    ++misses_;
  } else {
    ++hits_;
  }
  return slot.value;
}

SimTime MemoCostModel::overhead_for(
    int rank, std::vector<Slot>& cache,
    SimTime (CostModel::*method)(int) const) const {
  const std::size_t r = static_cast<std::size_t>(rank);
  if (cache.size() <= r) cache.resize(r + 1);
  Slot& slot = cache[r];
  if (!slot.known) {
    slot.value = (base_.*method)(rank);
    slot.known = true;
    ++misses_;
  } else {
    ++hits_;
  }
  return slot.value;
}

SimTime MemoCostModel::send_overhead(int rank) const {
  return overhead_for(rank, send_overhead_, &CostModel::send_overhead);
}

SimTime MemoCostModel::recv_overhead(int rank) const {
  return overhead_for(rank, recv_overhead_, &CostModel::recv_overhead);
}

}  // namespace soc::sim
