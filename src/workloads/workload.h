// Workload interface and registry.
//
// Every benchmark of Table I (ClusterSoCBench) and the NPB suite is a
// Workload: it owns (a) a microarchitectural profile for its host-side
// code, (b) a generator that lowers the benchmark's computation and
// communication structure into per-rank programs, and for the scientific
// codes (c) a small functional kernel (workloads/kernels/) proving the
// numerics the generator's FLOP formulas describe.
//
// The generator is a cursor over the benchmark's outer loop: each step
// appends one iteration (an NPB or jacobi iteration, an hpl panel, a
// cloverleaf step, a tealeaf CG iteration, a DNN batch) for every rank to
// one shared msg::ProgramSet.  build() steps it to the end; stream()
// steps it only as ranks run dry, so a run holds a few iterations of ops
// rather than the whole program.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/profile.h"
#include "sim/op.h"

namespace soc::msg {
class ProgramSet;
}

namespace soc::workloads {

class OpStream;

/// Parameters threaded into program generation.
struct BuildContext {
  int ranks = 1;
  int nodes = 1;
  /// CUDA memory-management model for GPU workloads (§III-B.5).
  sim::MemModel mem_model = sim::MemModel::kHostDevice;
  /// Fraction of offloadable work executed on the GPU; the remainder runs
  /// on the host core (the Fig 7 work-ratio study).  1.0 = all GPU.
  double gpu_work_fraction = 1.0;
  /// Optional scale on the benchmark's default problem size (1.0 = the
  /// Table I input).  Used by tests to keep runs quick.
  double size_scale = 1.0;
  /// Overlap halo exchanges with interior compute via non-blocking
  /// messaging (jacobi/tealeaf support this; the overlap ablation bench
  /// quantifies the benefit).
  bool overlap_halos = false;
};

/// Rejects malformed build parameters with a soc::UsageError naming the
/// offending field.  Every generator calls this before lowering.
void validate(const BuildContext& ctx);

/// A workload's generator, positioned between two outer iterations.
class WorkloadCursor {
 public:
  virtual ~WorkloadCursor() = default;

  /// Appends the next outer iteration of every rank to `ps`, through the
  /// same ProgramSet calls in the same order as one pass of the eager
  /// loop, so tags, phase ids and each rank's op order match a whole
  /// build.  `ps` must be the set every earlier step appended to.
  /// Returns false, appending nothing, once the run is complete.
  virtual bool step(msg::ProgramSet& ps) = 0;
};

/// A cursor over `step`, a callable `bool(msg::ProgramSet&)` that keeps
/// its loop state in its own captures.  Generators capture copies of
/// what they read, never their Workload.  Only the stream that owns the
/// cursor steps it, on one thread.
template <typename Step>
std::unique_ptr<WorkloadCursor> make_cursor(Step step) {
  class Cursor final : public WorkloadCursor {
   public:
    explicit Cursor(Step s) : step_(std::move(s)) {}
    bool step(msg::ProgramSet& ps) override { return step_(ps); }

   private:
    Step step_;
  };
  return std::make_unique<Cursor>(std::move(step));
}

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual bool gpu_accelerated() const = 0;

  /// Host-side microarchitectural profile (index 0 is the profile id the
  /// generated CPU ops reference).
  virtual arch::WorkloadProfile cpu_profile() const = 0;

  /// The one generator entry.  Validates `ctx` (this workload's own
  /// checks included) and returns a cursor before the first iteration.
  virtual std::unique_ptr<WorkloadCursor> cursor(
      const BuildContext& ctx) const = 0;

  /// Every rank's whole program: cursor(ctx) stepped to the end.  For
  /// callers that need programs up front (trace export, calibration
  /// probes, the engine-only perf harness).
  std::vector<sim::Program> build(const BuildContext& ctx) const;

  /// The pull-based form every runner consumes: a CursorStream over
  /// cursor(ctx).  Commits the byte-identical event stream and
  /// event_checksum as replaying build()'s programs.
  std::unique_ptr<OpStream> stream(const BuildContext& ctx) const;
};

/// All GPGPU-accelerated workloads of Table I, in paper order:
/// hpl, jacobi, cloverleaf, tealeaf2d, tealeaf3d, alexnet, googlenet.
std::vector<std::unique_ptr<Workload>> cluster_soc_bench();

/// The NPB subset of §III-A: bt, cg, ep, ft, is, lu, mg, sp (class C).
std::vector<std::unique_ptr<Workload>> npb_suite();

/// Registered workload tags, in Table I + NPB order.  This is the
/// registry's authoritative name list: socbench usage, grid enumeration,
/// and make_workload's error message all derive from it.
const std::vector<std::string>& list();

/// Creates one workload by its Table I / NPB tag.  An unknown tag fails a
/// SOC_CHECK whose message names every valid tag.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace soc::workloads
