// Pull-based operation sources.
//
// The engine consumes one op at a time per rank through OpSource instead
// of requiring whole per-rank programs up front.  The pull carries the
// deterministic simulation time at which the rank asks for its next op,
// so time-triggered sources (fault injection, OS noise, checkpoint
// cadences — see src/workloads/scenario.h) are themselves deterministic:
// the engine is serial and its event order is fixed, hence so is every
// (rank, now) pull sequence.
//
// ProgramSource adapts the classic eager path (one std::vector<Op> per
// rank); RecordingSource tees a one-shot source into materialized
// programs so its run can be replayed verbatim under the Eq. 4 what-ifs
// (trace::replay_scenarios' one-shot form, whose two replays read the
// recording at the same time, each through its own ProgramSource).  A
// stream that can be pulled afresh, such as an undecorated
// Workload::stream(), needs no recording: each replay pulls its own.
#pragma once

#include <vector>

#include "sim/op.h"

namespace soc::sim {

/// One per-rank operation source the engine pulls from.
///
/// Contract: next() is called with monotonically non-decreasing `now` per
/// rank; each true return hands the engine exactly one op, and the first
/// false return ends that rank's stream permanently.  A parked op
/// (rendezvous, kWaitAll) is NOT re-pulled on wake — the engine buffers
/// the current op — so a source sees each op requested exactly once.
class OpSource {
 public:
  virtual ~OpSource() = default;

  /// Number of rank streams (must match the engine's placement).
  virtual int ranks() const = 0;

  /// Pulls `rank`'s next op at simulation time `now`.  Returns false at
  /// end of stream (and `*op` is left untouched).
  virtual bool next(int rank, SimTime now, Op* op) = 0;
};

/// Walks pre-built per-rank programs (non-owning; the vector must outlive
/// the source).  This is the eager Workload::build() compatibility path.
class ProgramSource final : public OpSource {
 public:
  explicit ProgramSource(const std::vector<Program>& programs);

  int ranks() const override;
  bool next(int rank, SimTime now, Op* op) override;

 private:
  const std::vector<Program>* programs_;
  std::vector<std::size_t> cursor_;
};

/// Tees another source: every pulled op is appended to a per-rank
/// program, so the exact streamed op sequence can be replayed later.  It
/// holds every op the run pulls.
class RecordingSource final : public OpSource {
 public:
  explicit RecordingSource(OpSource& inner);

  int ranks() const override;
  bool next(int rank, SimTime now, Op* op) override;

  /// The ops recorded so far, one program per rank, in pull order.
  const std::vector<Program>& programs() const { return programs_; }

 private:
  OpSource* inner_;
  std::vector<Program> programs_;
};

}  // namespace soc::sim
