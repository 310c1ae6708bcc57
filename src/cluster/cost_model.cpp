#include "cluster/cost_model.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "common/thread_safety.h"
#include "gpu/device.h"
#include "mem/dram.h"

namespace soc::cluster {

namespace {

/// The characterizations of the live cost models, keyed by value on what
/// arch::characterize receives.  The registry holds each entry by weak
/// reference and every model holds a strong one, so models alive at the
/// same time (a SweepRunner's memo, a bench's grid) characterize each
/// (core, profile) pair once, and an entry is dropped with the last model
/// that uses it.  It is deliberately not a process-lifetime memo: a
/// program that builds one model at a time characterizes on every build,
/// as a fresh process would.
class CharacterizationRegistry {
 public:
  std::shared_ptr<const arch::Characterization> get(
      const arch::CoreConfig& core, const arch::WorkloadProfile& profile)
      SOC_EXCLUDES(mutex_) {
    std::shared_ptr<Entry> entry;
    {
      const MutexLock lock(mutex_);
      std::erase_if(entries_, [](const std::weak_ptr<Entry>& weak) {
        return weak.expired();
      });
      for (const std::weak_ptr<Entry>& weak : entries_) {
        // lock() is null if the last model let go since the erase.
        std::shared_ptr<Entry> live = weak.lock();
        if (live != nullptr && live->core == core &&
            live->profile == profile) {
          entry = std::move(live);
          break;
        }
      }
      if (entry == nullptr) {
        entry = std::make_shared<Entry>(core, profile);
        entries_.push_back(entry);
      }
    }
    // Characterize outside the lock: other keys proceed meanwhile, and a
    // second thread on this key waits here for the first one's result.
    std::call_once(entry->once, [&] {
      entry->charz = arch::characterize(entry->core, entry->profile);
    });
    return {entry, &entry->charz};  // aliases the entry's lifetime
  }

 private:
  struct Entry {
    Entry(const arch::CoreConfig& c, const arch::WorkloadProfile& p)
        : core(c), profile(p) {}
    const arch::CoreConfig core;
    const arch::WorkloadProfile profile;
    std::once_flag once;  // SOC_SHARED(once) — call_once publishes `charz`
    /// Written exactly once under `once`; read-only afterwards.
    arch::Characterization charz;
  };

  Mutex mutex_;  // SOC_SHARED(self)
  std::vector<std::weak_ptr<Entry>> entries_ SOC_GUARDED_BY(mutex_);
};

}  // namespace

double l2_contention_for(const systems::NodeConfig& node, int nodes,
                         int ranks) {
  SOC_CHECK(nodes > 0 && ranks > 0, "bad cluster shape");
  const int rpn = (ranks + nodes - 1) / nodes;
  const int domains =
      std::max(1, node.cpu_cores / std::max(node.l2_domain_cores, 1));
  const int sharers = std::max(1, (rpn + domains - 1) / domains);
  if (sharers == 1) return 1.0;
  return static_cast<double>(sharers) * node.l2_thrash_factor;
}

ClusterCostModel::ClusterCostModel(const systems::NodeConfig& node, int nodes,
                                   int ranks,
                                   const arch::WorkloadProfile& profile)
    : node_(node),
      network_(node.nic, node.switch_config, node.dram.cpu_bandwidth / 2.0) {
  SOC_CHECK(ranks >= nodes, "fewer ranks than nodes");
  arch::CoreConfig core = node_.core;
  core.l2_contention = l2_contention_for(node_, nodes, ranks);
  static CharacterizationRegistry registry;  // guarded by its own mutex
  charz_ = registry.get(core, profile);
}

SimTime ClusterCostModel::cpu_compute_time(int /*rank*/,
                                                const sim::Op& op) const {
  const double seconds =
      charz_->seconds_for(op.instructions, node_.core.frequency_hz);
  return from_seconds(seconds);
}

SimTime ClusterCostModel::gpu_kernel_time(int /*rank*/,
                                               const sim::Op& op) const {
  SOC_CHECK(node_.has_gpu, "GPU kernel on a GPU-less node");
  return gpu::kernel_duration(node_.gpu, op.flops, op.dram_bytes,
                              op.mem_model, op.double_precision,
                              op.parallelism);
}

SimTime ClusterCostModel::copy_time(int /*rank*/,
                                         const sim::Op& op) const {
  switch (op.mem_model) {
    case sim::MemModel::kHostDevice:
      return mem::copy_duration(node_.dram, op.bytes);
    case sim::MemModel::kZeroCopy:
      // No copy happens: device threads read host memory directly.
      return 1 * kMicrosecond;
    case sim::MemModel::kUnified:
      // Migration is transparent; only the runtime's bookkeeping remains.
      return node_.dram.copy_call_overhead / 2;
  }
  return 0;
}

SimTime ClusterCostModel::message_latency(int src_node,
                                               int dst_node) const {
  return network_.latency(src_node, dst_node);
}

SimTime ClusterCostModel::message_transfer_time(int src_node,
                                                     int dst_node,
                                                     Bytes bytes) const {
  return network_.transfer_time(src_node, dst_node, bytes);
}

SimTime ClusterCostModel::send_overhead(int /*rank*/) const {
  return 2 * kMicrosecond;
}

SimTime ClusterCostModel::recv_overhead(int /*rank*/) const {
  return 2 * kMicrosecond;
}

arch::CounterSet ClusterCostModel::synthesize_counters(
    const sim::RunStats& stats) const {
  arch::CounterSet total;
  for (const sim::RankStats& rs : stats.ranks) {
    for (const auto& [profile, instructions] : rs.instructions_by_profile) {
      // All CPU ops of a workload share profile 0 (the workload's host
      // code); additional profiles would be characterized identically.
      total += charz_->per_instruction.scaled(instructions);
    }
  }
  return total;
}

}  // namespace soc::cluster
