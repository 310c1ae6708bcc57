// The workload-facing pull API.
//
// workloads::OpStream is the seam the whole runner stack consumes: a
// per-rank `get_next(rank, now) -> Op` where end of stream is the
// OpKind::kEnd sentinel.  It derives from sim::OpSource so the engine can
// pull it directly; the final next() override bridges the sentinel to the
// engine's bool protocol, which guarantees kEnd itself never reaches the
// dispatch loop (the engine SOC_CHECKs on it).
//
// ProgramWalkStream adapts any eager Workload::build() generator: the
// programs are generated lazily on the first pull and walked in order, so
// streaming a workload commits the byte-identical event sequence (and
// event_checksum) as replaying its built programs.
#pragma once

#include <memory>
#include <vector>

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

/// Lazily walks the programs of an eager generator.  Generation runs on
/// the first pull, not at construction, so building a decorated pipeline
/// stays cheap until the engine actually starts.
class ProgramWalkStream final : public OpStream {
 public:
  /// Walks `workload.build(ctx)`.  The workload reference must outlive
  /// the first pull (cluster::run owns both for the run's duration).
  ProgramWalkStream(const Workload& workload, const BuildContext& ctx);

  /// Walks already-built programs (takes ownership).
  explicit ProgramWalkStream(std::vector<sim::Program> programs);

  int ranks() const override;
  sim::Op get_next(int rank, SimTime now) override;

 private:
  void build();

  const Workload* workload_ = nullptr;
  BuildContext ctx_;
  bool built_ = false;
  std::vector<sim::Program> programs_;
  std::vector<std::size_t> cursor_;
  int ranks_;
};

}  // namespace soc::workloads
