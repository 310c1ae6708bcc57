// Perf-per-watt frontier: a sweep::Grid over the CPU/GPU work split x
// DVFS operating point x node count, evaluated through the shared
// SweepRunner and reduced to each workload's Pareto frontier in
// (runtime, energy).
//
// The sweep answers the deployment question behind the paper's energy
// argument: which operating points of the SoC cluster are *efficient* —
// no other point finishes both faster and on fewer joules.  Points off
// the frontier are dominated and never worth configuring.
//
// frontier_json renders the deterministic "soccluster-energy-frontier/v1"
// document; like every sweep artifact it is byte-identical across thread
// counts and build flavors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "sweep/grid.h"

namespace soc::sweep {

/// One evaluated operating point of the frontier sweep.
struct FrontierPoint {
  std::string workload;
  int nodes = 0;
  int ranks = 0;
  double gpu_fraction = 1.0;
  double dvfs = 1.0;
  double seconds = 0.0;
  double joules = 0.0;
  double gflops = 0.0;
  double average_watts = 0.0;
  double mflops_per_watt = 0.0;
  std::uint64_t event_checksum = 0;
  /// Non-dominated within its workload: no other point has both lower-
  /// or-equal runtime and lower-or-equal energy with one strictly lower.
  bool pareto = false;
};

/// Joins the grid with its sweep results (parallel to grid.requests())
/// and marks each workload's Pareto-optimal points.  A point's dvfs is
/// 1.0 when the grid's clock axis is empty.
std::vector<FrontierPoint> perf_per_watt_frontier(
    const Grid& grid, const std::vector<cluster::RunResult>& results);

/// The deterministic "soccluster-energy-frontier/v1" JSON document.
std::string frontier_json(const std::string& label, const Grid& grid,
                          const std::vector<FrontierPoint>& points);

}  // namespace soc::sweep
