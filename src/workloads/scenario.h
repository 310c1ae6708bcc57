// Scenario decorators: fault injection, OS noise, and checkpoint/restart
// as composable wrappers over any sim::OpSource.
//
// Each decorator rewrites or interleaves ops on the pull path, keyed off
// the deterministic simulation time the engine passes with every pull —
// no cost-model access, no randomness outside an explicitly seeded
// per-rank stream.  The damage therefore lands in the committed event
// stream like any other work: the LB/Ser/Trf decomposition (prof) and
// the energy attribution explain it with zero residual.
//
// Three scenario families (ISSUE 8):
//  - deterministic faults: node crash at time t (crash-and-restart — the
//    node's ranks stall for the downtime, then resume), link flap
//    windows (message ops on the affected node are held until the window
//    closes), and straggler ranks (a duration multiplier on
//    compute/kernel/copy ops via Op::time_scale);
//  - OS noise: seeded, per-rank, fixed-interval stalls with optional
//    interval jitter;
//  - checkpoint/restart sized by Daly's higher-order optimal-interval
//    formula from checkpoint write time and MTTI.
//
// This header is workload-layer only: it must not include cluster or
// sweep headers, and the engine seam (workloads/op_stream.h) must not
// include this file (soclint's stream-seam pass pins both directions).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/op_stream.h"

namespace soc::workloads {

/// One deterministic fault.  Which fields matter depends on kind; the
/// parse/validate helpers reject inconsistent combinations.
struct FaultSpec {
  enum class Kind {
    kNodeCrash,  ///< node's ranks stall `downtime_seconds` at `start_seconds`
    kLinkFlap,   ///< node's message ops stall during [start, end)
    kStraggler,  ///< rank's compute/kernel/copy ops stretch by `slowdown`
  };

  Kind kind = Kind::kNodeCrash;
  int node = -1;                 ///< crash/flap target
  int rank = -1;                 ///< straggler target
  double start_seconds = 0.0;    ///< crash time / flap window open
  double end_seconds = 0.0;      ///< flap window close
  double downtime_seconds = 0.0; ///< crash restart delay
  double slowdown = 1.0;         ///< straggler duration multiplier (> 1)

  bool operator==(const FaultSpec&) const = default;
};

const char* fault_kind_name(FaultSpec::Kind kind);

/// Seeded per-rank OS noise: every `interval_seconds` (perturbed by up to
/// ±`jitter` of itself), the rank stalls for `duration_seconds`.
struct NoiseSpec {
  std::uint64_t seed = 1;
  double interval_seconds = 0.0;
  double duration_seconds = 0.0;
  double jitter = 0.0;  ///< fraction of the interval, in [0, 1)

  bool enabled() const { return interval_seconds > 0.0 && duration_seconds > 0.0; }
  bool operator==(const NoiseSpec&) const = default;
};

/// Checkpoint/restart cadence from Daly's optimal interval: the write
/// time is size_bytes / bandwidth, the interval follows from it and the
/// MTTI.  `runtime_seconds` caps the injection window (0 = unlimited).
struct CheckpointSpec {
  double size_bytes = 0.0;
  double bandwidth = 0.0;      ///< checkpoint write bandwidth, bytes/s
  double mtti_seconds = 0.0;   ///< mean time to interrupt
  double runtime_seconds = 0.0;

  bool enabled() const { return size_bytes > 0.0 && bandwidth > 0.0; }
  bool operator==(const CheckpointSpec&) const = default;
};

/// The full scenario attached to a run (value-semantic; serialized into
/// run reports, compared in sweep grids).
struct ScenarioConfig {
  std::vector<FaultSpec> faults;
  NoiseSpec noise;
  CheckpointSpec checkpoint;

  bool enabled() const {
    return !faults.empty() || noise.enabled() || checkpoint.enabled();
  }
  bool operator==(const ScenarioConfig&) const = default;
};

/// Daly's higher-order optimal checkpoint interval (seconds) for write
/// time δ and mean time to interrupt M:
///   δ < 2M:  τ = sqrt(2δM)·[1 + (1/3)·sqrt(δ/(2M)) + (1/9)·(δ/(2M))] − δ
///   else:    τ = M
double daly_optimal_interval(double write_seconds, double mtti_seconds);

/// Validates `config` against the run shape and wraps `inner` in the
/// decorators it calls for (spec order, then noise, then checkpoint).
/// Rank-to-node mapping is block placement: node_of(r) = r / (ranks/nodes).
/// Returns `inner` unchanged when the scenario is empty.
std::unique_ptr<sim::OpSource> apply_scenarios(
    std::unique_ptr<sim::OpSource> inner, const ScenarioConfig& config,
    int nodes);

/// Parses one fault spec, e.g. "node-crash:node=0,t=5,down=60",
/// "link-flap:node=1,t0=2,t1=4", "straggler:rank=3,slowdown=2.5".
FaultSpec parse_fault_spec(const std::string& spec);

/// Parses "interval=0.01,duration=0.001[,seed=7][,jitter=0.25]".
NoiseSpec parse_noise_spec(const std::string& spec);

/// Parses "daly:size=4e9,bw=2e9,mtti=3600[,runtime=0]".
CheckpointSpec parse_checkpoint_spec(const std::string& spec);

/// Assembles a ScenarioConfig from the socbench flag values: `faults` is
/// a ';'-separated list of fault specs; empty strings mean "absent".
ScenarioConfig parse_scenario(const std::string& faults,
                              const std::string& noise,
                              const std::string& checkpoint);

}  // namespace soc::workloads
