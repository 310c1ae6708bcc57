// Cluster cost model: composes the arch/gpu/mem/net substrates into the
// CostModel the replay engine consumes, for one (node type, cluster
// shape, workload profile) combination.
#pragma once

#include <memory>

#include "arch/core_model.h"
#include "net/network.h"
#include "sim/cost_model.h"
#include "systems/machines.h"

namespace soc::cluster {

class ClusterCostModel : public sim::CostModel {
 public:
  /// `profile` is the workload's host-side code descriptor; `ranks` and
  /// `nodes` determine per-rank L2 pressure on shared-LLC machines.
  /// Models alive at the same time whose core (with that L2 pressure) and
  /// profile compare equal share one characterization, built once.
  ClusterCostModel(const systems::NodeConfig& node, int nodes, int ranks,
                   const arch::WorkloadProfile& profile);

  SimTime cpu_compute_time(int rank, const sim::Op& op) const override;
  SimTime gpu_kernel_time(int rank, const sim::Op& op) const override;
  SimTime copy_time(int rank, const sim::Op& op) const override;
  SimTime message_latency(int src_node, int dst_node) const override;
  SimTime message_transfer_time(int src_node, int dst_node,
                                     Bytes bytes) const override;
  SimTime send_overhead(int rank) const override;
  SimTime recv_overhead(int rank) const override;
  /// All durations derive from the immutable characterization and device
  /// tables built at construction; no method depends on rank identity.
  bool memoizable() const override { return true; }

  /// The characterization backing CPU op timing (used for counter
  /// synthesis and exposed to the analysis benches).
  const arch::Characterization& characterization() const { return *charz_; }

  /// PMU counters implied by a run's per-profile instruction tallies,
  /// summed over all ranks.
  arch::CounterSet synthesize_counters(const sim::RunStats& stats) const;

  const systems::NodeConfig& node() const { return node_; }

 private:
  systems::NodeConfig node_;
  /// Shared with every live model of the same (core, profile) key.
  std::shared_ptr<const arch::Characterization> charz_;
  net::NetworkModel network_;
};

/// Effective L2 contention factor for `ranks` over `nodes` of this node
/// type: per-rank share of the shared L2 plus thrash pressure.
double l2_contention_for(const systems::NodeConfig& node, int nodes,
                         int ranks);

}  // namespace soc::cluster
