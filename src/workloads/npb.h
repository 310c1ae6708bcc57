// NAS Parallel Benchmarks (class C) workload models: bt, cg, ep, ft, is,
// lu, mg, sp — the CPU-side suite the paper uses for the network study
// (Figs 1–2), the NPB scalability analysis (Fig 6), and the Cavium
// ThunderX comparison (Table VI, Fig 8).
//
// Communication structures follow the published benchmarks: multipartition
// neighbour exchanges (bt/sp), sparse segment exchanges plus dot-product
// allreduces (cg), a single terminal reduction (ep), transpose all-to-alls
// (ft/is), pipelined SSOR wavefronts (lu), and per-level halo exchanges
// with a coarse-grid reduction (mg).  Work volumes strong-scale with the
// rank count from their 32-rank reference calibration.
#pragma once

#include "workloads/workload.h"

namespace soc::workloads {

/// Communication skeleton of an NPB benchmark.
enum class NpbPattern {
  kNeighbors,  ///< bt/sp: pairwise face exchanges.
  kSparse,     ///< cg: log2(P) segment exchanges + 2 allreduces.
  kNone,       ///< ep: terminal reduction only.
  kAllToAll,   ///< ft/is: transpose.
  kPipeline,   ///< lu: rank-ordered wavefront sweeps.
  kMultigrid,  ///< mg: per-level halos, sizes halving.
};

/// Static description of one NPB benchmark at the 32-rank reference.
struct NpbSpec {
  std::string tag;
  int iterations = 100;
  double instructions_per_rank_iter = 1e8;  ///< At 32 ranks.
  double flops_per_instruction = 0.3;
  double dram_bytes_per_instruction = 0.5;
  double imbalance = 0.05;
  NpbPattern pattern = NpbPattern::kNeighbors;
  Bytes comm_unit = 128 * kKB;  ///< Pattern-specific message size at 32 ranks.
};

class NpbWorkload : public Workload {
 public:
  explicit NpbWorkload(NpbSpec spec);

  std::string name() const override { return spec_.tag; }
  bool gpu_accelerated() const override { return false; }
  arch::WorkloadProfile cpu_profile() const override;
  std::unique_ptr<WorkloadCursor> cursor(
      const BuildContext& ctx) const override;

  const NpbSpec& spec() const { return spec_; }

 private:
  NpbSpec spec_;
};

/// Calibrated class-C specs.
NpbSpec npb_bt_spec();
NpbSpec npb_cg_spec();
NpbSpec npb_ep_spec();
NpbSpec npb_ft_spec();
NpbSpec npb_is_spec();
NpbSpec npb_lu_spec();
NpbSpec npb_mg_spec();
NpbSpec npb_sp_spec();

}  // namespace soc::workloads
