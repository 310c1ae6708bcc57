// A deliberately naive second scheduler, the test oracle for sim::Engine.
//
// run_reference() executes whole programs under the rules DESIGN.md §6
// states as the engine's semantics and nothing more: events in strict
// (time, intrinsic key) order from one std::map, FIFO matching per exact
// (src, dst, tag) in std::deques, FIFO lanes per node (GPU, copy engine,
// NIC TX and RX), one switch output port per destination node, eager and
// rendezvous transfers with the CTS floor, the same-node instant path,
// isend/irecv/waitall request windows, kDelay stalls and Op::time_scale.
// It has no event heap, match table, commit buffer, digest or observer,
// and shares no scheduling code with the engine, so an optimization that
// breaks a rule shows up as a difference.
#pragma once

#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim/op.h"

namespace soc::test {

/// What the reference computes, and what the comparison checks.
struct ReferenceRun {
  std::vector<SimTime> finish;  ///< Per rank: when its program drained.
  SimTime makespan = 0;
  /// Every matched transfer, sorted by (src, dst, tag, start) and then
  /// by the remaining fields.
  std::vector<sim::MessageRecord> messages;
};

/// Runs the programs to completion.  Throws soc::Error when a rank never
/// finishes or a message endpoint is left unmatched.
ReferenceRun run_reference(const std::vector<sim::Program>& programs,
                           const sim::Placement& placement,
                           const sim::CostModel& cost,
                           const sim::EngineConfig& config = {});

/// Runs the programs through sim::Engine and through run_reference.
/// Returns "" when the two agree on every rank's finish time, the makespan
/// and every message record; otherwise a description of the first
/// difference.
std::string engine_vs_reference(const std::vector<sim::Program>& programs,
                                const sim::Placement& placement,
                                const sim::CostModel& cost,
                                const sim::EngineConfig& config = {});

}  // namespace soc::test
