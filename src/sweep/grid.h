// Grid enumeration: the one way bench binaries and socbench turn an
// experiment's axes (workloads × nodes × NIC × mem-model × GPU work
// fraction × DVFS clock) into the flat RunRequest list a SweepRunner
// shards.
//
// Enumeration order is row-major with workloads outermost and the clock
// innermost, matching the nested loops the bench binaries used to write
// by hand; index() maps axis indices back to the flat result slot so a
// bench can lay out its table from the sweep's result vector.  Every
// request runs on systems::jetson_tx1(nic), re-clocked by the dvfs axis,
// at the workload's natural rank count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "net/network.h"
#include "systems/machines.h"

namespace soc::sweep {

/// The workload's natural rank count on `nodes` TX1-class nodes: 1
/// rank/node for GPU codes, 4 for the DNN decode workers, 2 for NPB.
int natural_ranks(const workloads::Workload& workload, int nodes);

struct Grid {
  /// Registry tags (workloads::list() subset); the outermost axis.
  std::vector<std::string> workloads;
  std::vector<int> nodes = {16};
  std::vector<net::NicKind> nics = {net::NicKind::kTenGigabit};

  /// Option axes.  An EMPTY axis means "inherit that field from `base`"
  /// (one column, no override).
  std::vector<sim::MemModel> mem_models;
  std::vector<double> gpu_fractions;

  /// Relative clock, the innermost axis: each value re-clocks the node
  /// through systems::with_dvfs (clocks, bandwidth law, VF power curve).
  /// EMPTY leaves the node as built (one column).
  std::vector<double> dvfs;

  /// Options every request starts from before axis overrides apply.
  cluster::RunOptions base;

  /// Scenario decorators (fault injection / noise / checkpoint) attached
  /// to every enumerated request; empty = scenario-free runs.
  workloads::ScenarioConfig scenario;

  /// Total requests the grid enumerates (0 when `workloads` is empty).
  std::size_t size() const;

  /// Flat result index for one combination of axis positions; empty
  /// option axes contribute one column, so their index must be 0.
  std::size_t index(std::size_t iworkload, std::size_t inode,
                    std::size_t inic = 0, std::size_t imem = 0,
                    std::size_t ifraction = 0, std::size_t idvfs = 0) const;

  /// Enumerates the grid as RunRequests, in index() order.
  std::vector<cluster::RunRequest> requests() const;
};

}  // namespace soc::sweep
