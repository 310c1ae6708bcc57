// Program builder for SPMD workloads.
//
// Workload generators describe their communication with MPI-flavoured
// verbs; ProgramSet lowers everything to the engine's op vocabulary, one
// program per rank, with deterministic tag allocation.  Collectives are
// expanded into point-to-point algorithms at build time so that NIC
// contention applies to every stage of a tree or ring (design decision 5
// in DESIGN.md).
#pragma once

#include <vector>

#include "sim/op.h"

namespace soc::msg {

class ProgramSet {
 public:
  explicit ProgramSet(int ranks);

  int ranks() const { return ranks_; }

  /// Appends a raw op to one rank's program.
  void add(int rank, sim::Op op);

  /// Marks the start of a new phase on every rank and returns its id.
  int begin_phase();
  /// Current phase id.
  int phase() const { return phase_; }

  /// Allocates a fresh message tag (monotonic, never reused).
  int next_tag();

  /// Point-to-point: sender and receiver ops with a shared fresh tag.
  void send_recv(int src, int dst, Bytes bytes);

  /// Deadlock-free pairwise exchange: both ranks send `bytes` to each
  /// other (the lower rank sends first, the higher receives first).
  void exchange(int rank_a, int rank_b, Bytes bytes);

  /// Non-blocking pairwise exchange: posts Irecv+Isend on both ranks.
  /// Callers must eventually emit wait_all() on each rank to complete
  /// the requests (this is what lets halo traffic overlap compute).
  void exchange_async(int rank_a, int rank_b, Bytes bytes);

  /// Blocks `rank` until all its outstanding non-blocking requests done.
  void wait_all(int rank);

  /// Extracts the built programs (the builder is left empty).
  std::vector<sim::Program> take();

  /// Moves `rank`'s ops built so far into `out` (replacing its contents)
  /// and leaves that rank's program empty, reusing `out`'s storage.  The
  /// tag and phase counters keep running, so ops appended later continue
  /// the same numbering: a generator that appends in chunks and a reader
  /// that takes each chunk see the ops an eager build would produce.
  void take(int rank, sim::Program& out);

  const std::vector<sim::Program>& programs() const { return programs_; }

 private:
  int ranks_;
  int phase_ = 0;
  int tag_ = 0;
  std::vector<sim::Program> programs_;
};

}  // namespace soc::msg
