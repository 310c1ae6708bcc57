// Critical-path profiler, stage 4: the profile artifact.
//
// analyze() rolls one reconstructed RunTrace into a Profile: the
// critical-path attribution, per-rank/ per-lane rollups, what-if
// projections (ideal network, ideal balance, uncontended lanes), and the
// single-pass LB/Ser/Trf efficiency decomposition (paper Eq. 4) — all
// from one instrumented run, no engine replays.  The attribution and the
// four what-if re-timings (the measured round trip and the three
// projections) are independent read-only passes over the trace and run
// concurrently through soc::parallel_for.
//
// profile_json() renders the deterministic `soccluster-critical-path/v1`
// document.  Every value in the artifact is an integer (nanoseconds, or
// parts-per-million fixed point computed in 128-bit integer arithmetic),
// so the bytes are identical across optimization levels, sanitizer
// builds, and host architectures; doubles appear only in the
// human-readable Factors mirror used for stdout tables.
// folded_stacks() renders the critical path as flamegraph-compatible
// folded lines ("rank;phase;category <ns>").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "prof/critical_path.h"
#include "prof/energy.h"
#include "prof/profiler.h"
#include "prof/whatif.h"

namespace soc::prof {

/// Double-precision LB/Ser/Trf mirror of core::decompose, for human
/// output.  The artifact carries only the ppm fixed-point versions.
struct Factors {
  double load_balance = 1.0;
  double serialization = 1.0;
  double transfer = 1.0;
  double efficiency = 1.0;

  bool operator==(const Factors&) const = default;
};

/// Everything the exporters and callers need from one profiled run.
struct Profile {
  Attribution attribution;
  obs::LaneUsage usage;  ///< Per-lane busy/blocked totals.

  int ranks = 0;
  int nodes = 0;
  SimTime makespan = 0;
  std::uint64_t event_checksum = 0;
  std::uint64_t events_committed = 0;

  /// What-if projections (makespans under re-timed scenarios).
  SimTime measured_eval = 0;  ///< evaluate() on the unmodified scenario.
  bool evaluator_exact = false;  ///< measured_eval == makespan (asserted).
  SimTime ideal_network = 0;
  SimTime ideal_balance = 0;
  SimTime uncontended = 0;

  /// Per-rank useful compute, integer ns (Σ phase_compute).
  SimTime compute_total = 0;
  SimTime compute_max = 0;

  Factors factors;

  /// Zero-residual joule attribution (set by cluster::run, which owns the
  /// node power config; analyze() alone leaves has_energy false).
  bool has_energy = false;
  EnergyAttribution energy;

  bool operator==(const Profile&) const = default;
};

/// Rolls a reconstructed trace into a Profile (attribution + four what-if
/// evaluations + efficiency factors).  The calling thread runs the
/// attribution while helper threads run the evaluations (inline when
/// called from inside a parallel_for task).  Throws soc::Error if the
/// measured re-evaluation fails to reproduce the recorded makespan
/// exactly.
Profile analyze(const RunTrace& trace);

/// The deterministic `soccluster-critical-path/v1` JSON document.
std::string profile_json(const Profile& profile);

/// Flamegraph-compatible folded stacks of the critical path: one line per
/// (rank, phase, category) in numeric order, weight in nanoseconds.
std::string folded_stacks(const Profile& profile);

}  // namespace soc::prof
