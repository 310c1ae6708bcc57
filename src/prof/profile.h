// Critical-path profiler, stage 3: the profile artifact.
//
// analyze() rolls one reconstructed RunTrace into a Profile: the
// critical-path attribution and the per-lane utilization of one
// instrumented run.  The paper's Eq. 4 decomposition is not here: it
// needs the ideal-network and ideal-balance replays, which
// cluster::replay_scenarios runs on the engine (`socbench decompose`).
//
// profile_json() renders the deterministic `soccluster-critical-path/v2`
// document.  Every value in the artifact is an integer (nanoseconds), so
// the bytes are identical across optimization levels, sanitizer builds,
// and host architectures.
// folded_stacks() renders the critical path as flamegraph-compatible
// folded lines ("rank;phase;category <ns>").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "prof/critical_path.h"
#include "prof/energy.h"
#include "prof/profiler.h"

namespace soc::prof {

/// Everything the exporters and callers need from one profiled run.
struct Profile {
  Attribution attribution;
  obs::LaneUsage usage;  ///< Per-lane busy/blocked totals.

  int ranks = 0;
  int nodes = 0;
  SimTime makespan = 0;
  std::uint64_t event_checksum = 0;
  std::uint64_t events_committed = 0;

  /// Zero-residual joule attribution (set by cluster::run, which owns the
  /// node power config; analyze() alone leaves has_energy false).
  bool has_energy = false;
  EnergyAttribution energy;

  bool operator==(const Profile&) const = default;
};

/// Rolls a reconstructed trace into a Profile: the header fields, the
/// lane usage and attribute(trace).
Profile analyze(const RunTrace& trace);

/// The deterministic `soccluster-critical-path/v2` JSON document.
std::string profile_json(const Profile& profile);

/// Flamegraph-compatible folded stacks of the critical path: one line per
/// (rank, phase, category) in numeric order, weight in nanoseconds.
std::string folded_stacks(const Profile& profile);

}  // namespace soc::prof
