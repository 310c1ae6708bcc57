// The workload-facing pull API.
//
// workloads::OpStream is the seam the whole runner stack consumes: a
// per-rank `get_next(rank, now) -> Op` where end of stream is the
// OpKind::kEnd sentinel.  It derives from sim::OpSource so the engine can
// pull it directly; the final next() override bridges the sentinel to the
// engine's bool protocol, which guarantees kEnd itself never reaches the
// dispatch loop (the engine SOC_CHECKs on it).
//
// CursorStream generates a workload's ops an outer iteration at a time
// (Workload::stream() returns one); ProgramWalkStream walks programs that
// were built whole.  Both commit the byte-identical event sequence (and
// event_checksum) for the same workload and context.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "msg/program_set.h"
#include "sim/op.h"
#include "sim/op_stream.h"
#include "workloads/workload.h"

namespace soc::workloads {

class OpStream : public sim::OpSource {
 public:
  /// Pulls `rank`'s next op at simulation time `now`.  Returns an op with
  /// kind == OpKind::kEnd once the rank's stream is exhausted (and keeps
  /// returning it on further calls).
  virtual sim::Op get_next(int rank, SimTime now) = 0;

  /// Bridges the kEnd sentinel to the engine's end-of-stream protocol.
  bool next(int rank, SimTime now, sim::Op* op) final;
};

/// Steps a WorkloadCursor on demand.  Every rank reads from its own ready
/// buffer; when that runs dry the rank takes whatever the shared
/// ProgramSet holds for it, stepping the cursor (one iteration for every
/// rank per step) until something arrives or the workload ends.  Other
/// ranks' ops from those steps wait in the shared set, so what the stream
/// holds is bounded by how far apart in iterations the ranks run.
class CursorStream final : public OpStream {
 public:
  CursorStream(std::unique_ptr<WorkloadCursor> cursor, int ranks);

  int ranks() const override;
  sim::Op get_next(int rank, SimTime now) override;

  /// The most ops held at once, counting the shared set plus every ready
  /// buffer.
  std::size_t high_water() const { return high_water_; }

 private:
  std::size_t pending_ops() const;

  std::unique_ptr<WorkloadCursor> cursor_;
  msg::ProgramSet pending_;
  std::vector<sim::Program> ready_;
  std::vector<std::size_t> next_;
  bool ended_ = false;
  std::size_t held_ = 0;
  std::size_t high_water_ = 0;
};

/// Walks already-built programs (takes ownership).
class ProgramWalkStream final : public OpStream {
 public:
  explicit ProgramWalkStream(std::vector<sim::Program> programs);

  int ranks() const override;
  sim::Op get_next(int rank, SimTime now) override;

 private:
  std::vector<sim::Program> programs_;
  std::vector<std::size_t> cursor_;
};

}  // namespace soc::workloads
