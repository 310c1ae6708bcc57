// Memoizing cost-model wrapper.
//
// Replayed programs evaluate the same op shapes millions of times: a CG
// iteration issues the identical halo-exchange sizes and SpMV instruction
// counts every sweep.  When the wrapped model declares itself memoizable
// (CostModel::memoizable — durations are pure functions of the documented
// op fields), caching those evaluations is observationally equivalent to
// recomputing them, so committed events and every derived artifact stay
// byte-identical.
//
// Keys cover *all* fields the CostModel interface documents as meaningful
// for each op kind — not just the fields today's cluster model happens to
// read — and the caches store full keys, compared by equality on lookup.
// A hash collision can therefore cost an extra probe but can never return
// the wrong duration.
#pragma once

#include <vector>

#include "common/flat_map.h"
#include "sim/cost_model.h"

namespace soc::sim {

/// Caches evaluations of a memoizable CostModel for the duration of one
/// or more runs over fixed programs.  The wrapper holds a non-owning
/// reference; keep the base model alive for the wrapper's lifetime.  An
/// instance belongs to one thread (one engine run at a time).
class MemoCostModel : public CostModel {
 public:
  explicit MemoCostModel(const CostModel& base);

  SimTime cpu_compute_time(int rank, const Op& op) const override;
  SimTime gpu_kernel_time(int rank, const Op& op) const override;
  SimTime copy_time(int rank, const Op& op) const override;
  SimTime message_latency(int src_node, int dst_node) const override;
  SimTime message_transfer_time(int src_node, int dst_node,
                                Bytes bytes) const override;
  SimTime send_overhead(int rank) const override;
  SimTime recv_overhead(int rank) const override;
  bool memoizable() const override { return true; }

  /// Cache hits across all seven methods (perf-harness telemetry).
  std::uint64_t hits() const { return hits_; }
  /// Cache misses (evaluations forwarded to the base model).
  std::uint64_t misses() const { return misses_; }

 private:
  // Documented compute-op fields: instructions/flops/dram_bytes/profile.
  // Doubles are keyed by bit pattern — exact recurrence, not tolerance.
  struct CpuKey {
    std::uint64_t instructions_bits;
    std::uint64_t flops_bits;
    Bytes dram_bytes;
    std::int32_t profile;
    bool operator==(const CpuKey&) const = default;
  };
  // Documented kernel-op fields, including the occupancy hint.
  struct GpuKey {
    std::uint64_t flops_bits;
    std::uint64_t parallelism_bits;
    Bytes dram_bytes;
    std::uint8_t mem_model;
    bool double_precision;
    bool operator==(const GpuKey&) const = default;
  };
  // Copies: direction, memory model, size.
  struct CopyKey {
    Bytes bytes;
    std::uint8_t kind;
    std::uint8_t mem_model;
    bool operator==(const CopyKey&) const = default;
  };
  struct TransferKey {
    std::uint64_t path;  ///< (src_node, dst_node) packed.
    Bytes bytes;
    bool operator==(const TransferKey&) const = default;
  };

  struct CpuKeyHash {
    std::uint64_t operator()(const CpuKey& k) const;
  };
  struct GpuKeyHash {
    std::uint64_t operator()(const GpuKey& k) const;
  };
  struct CopyKeyHash {
    std::uint64_t operator()(const CopyKey& k) const;
  };
  struct TransferKeyHash {
    std::uint64_t operator()(const TransferKey& k) const;
  };

  /// Cached value slot; `known` distinguishes "never evaluated" from any
  /// legitimate duration (including 0).
  struct Slot {
    SimTime value = 0;
    bool known = false;
  };

  SimTime overhead_for(int rank, std::vector<Slot>& cache,
                       SimTime (CostModel::*method)(int) const) const;

  const CostModel& base_;
  // The evaluation caches are mutable so the const CostModel interface
  // can memoize through them; an instance is confined to one thread.
  mutable flat_map<CpuKey, Slot, CpuKeyHash> cpu_;       // SOC_SHARED(single-thread)
  mutable flat_map<GpuKey, Slot, GpuKeyHash> gpu_;       // SOC_SHARED(single-thread)
  mutable flat_map<CopyKey, Slot, CopyKeyHash> copy_;    // SOC_SHARED(single-thread)
  mutable flat_map<std::uint64_t, Slot> latency_;        // SOC_SHARED(single-thread)
  mutable flat_map<TransferKey, Slot, TransferKeyHash> transfer_;  // SOC_SHARED(single-thread)
  mutable std::vector<Slot> send_overhead_;  ///< Indexed by rank.  SOC_SHARED(single-thread)
  mutable std::vector<Slot> recv_overhead_;  // SOC_SHARED(single-thread)
  mutable std::uint64_t hits_ = 0;           // SOC_SHARED(single-thread)
  mutable std::uint64_t misses_ = 0;         // SOC_SHARED(single-thread)
};

}  // namespace soc::sim
