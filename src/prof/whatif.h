// Critical-path profiler, stage 3: what-if re-timing.
//
// evaluate() re-schedules a recorded RunTrace under a modified scenario
// WITHOUT re-running the engine: op durations and message costs are read
// back out of the trace itself, and the scheduling rules (event ordering,
// eager/rendezvous matching, NIC/fabric/GPU/copy serialization, request
// windows) mirror sim::Engine exactly.  Evaluating the unmodified
// ("measured") scenario therefore reproduces the recorded makespan to the
// nanosecond — analyze() asserts this round trip as `evaluator_exact` —
// and the ideal-network / ideal-balance scenarios reproduce the paper's
// DIMEMAS-style replays from one instrumented pass.
//
// The trace must come from a plain measured run (no engine Scenario), as
// cluster::run produces.
#pragma once

#include <vector>

#include "prof/profiler.h"

namespace soc::prof {

/// Scenario knobs for one re-timing.
struct WhatIf {
  /// Zero latency and transfer time, no NIC/fabric serialization; message
  /// overheads and all dependencies remain (the paper's ideal network).
  bool ideal_network = false;
  /// Infinite lanes: no GPU/copy queueing and no NIC/fabric queueing, but
  /// transfers still take their measured latency + wire time.
  bool uncontended = false;
  /// Per-rank compute multiplier (empty = 1.0), applied exactly as the
  /// engine applies Scenario::compute_scale.
  std::vector<double> compute_scale;
  /// DVFS state: relative frequency of the compute clocks (CPU + GPU).
  /// Durations of cpu/gpu lane ops scale by 1/dvfs_compute; 1.0 is the
  /// recorded state and is an exact identity (no rounding applied).
  double dvfs_compute = 1.0;
  /// Relative frequency of the memory clock: copy-lane ops scale by
  /// 1/dvfs_dram.  1.0 is an exact identity.
  double dvfs_dram = 1.0;
  /// Whole-cluster power cap in watts (0 = off).  The cap is evaluated
  /// on the measured power timeline by prof::retime() — bins over the
  /// cap dilate, the makespan stretches — and cannot be combined with
  /// the duration-changing knobs above (retime() throws).  evaluate()
  /// ignores it.
  double power_cap_w = 0.0;
};

/// Re-times the trace under the scenario; returns the projected makespan.
SimTime evaluate(const RunTrace& trace, const WhatIf& scenario);

}  // namespace soc::prof
