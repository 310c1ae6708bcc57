// The workload-side op sources the engine pulls from.
//
// Both implement sim::OpSource, the one pull protocol: next(rank, now,
// &op) hands over one op or returns false once the rank's stream ends.
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

/// Steps a WorkloadCursor on demand.  Every rank reads from its own ready
/// buffer; when that runs dry the rank takes whatever the shared
/// ProgramSet holds for it, stepping the cursor (one iteration for every
/// rank per step) until something arrives or the workload ends.  Other
/// ranks' ops from those steps wait in the shared set, so what the stream
/// holds is bounded by how far apart in iterations the ranks run.  A
/// rank's buffers are freed when its stream ends.
class CursorStream final : public sim::OpSource {
 public:
  CursorStream(std::unique_ptr<WorkloadCursor> cursor, int ranks);

  int ranks() const override;
  bool next(int rank, SimTime now, sim::Op* op) override;

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

/// Walks already-built programs (takes ownership; sim::ProgramSource is
/// the non-owning walker it delegates to).
class ProgramWalkStream final : public sim::OpSource {
 public:
  explicit ProgramWalkStream(std::vector<sim::Program> programs);
  ProgramWalkStream(const ProgramWalkStream&) = delete;
  ProgramWalkStream& operator=(const ProgramWalkStream&) = delete;

  int ranks() const override;
  bool next(int rank, SimTime now, sim::Op* op) override;

 private:
  std::vector<sim::Program> programs_;
  sim::ProgramSource walk_;  ///< Points into programs_.
};

}  // namespace soc::workloads
