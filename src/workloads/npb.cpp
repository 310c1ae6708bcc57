#include "workloads/npb.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "msg/collectives.h"
#include "msg/program_set.h"
#include "workloads/profiles.h"
#include "workloads/scientific.h"

namespace soc::workloads {

NpbWorkload::NpbWorkload(NpbSpec spec) : spec_(std::move(spec)) {
  SOC_CHECK(!spec_.tag.empty() && spec_.iterations >= 1, "bad NPB spec");
}

arch::WorkloadProfile NpbWorkload::cpu_profile() const {
  if (spec_.tag == "bt") return profiles::npb_bt();
  if (spec_.tag == "cg") return profiles::npb_cg();
  if (spec_.tag == "ep") return profiles::npb_ep();
  if (spec_.tag == "ft") return profiles::npb_ft();
  if (spec_.tag == "is") return profiles::npb_is();
  if (spec_.tag == "lu") return profiles::npb_lu();
  if (spec_.tag == "mg") return profiles::npb_mg();
  if (spec_.tag == "sp") return profiles::npb_sp();
  throw Error("unknown NPB tag: " + spec_.tag);
}

std::unique_ptr<WorkloadCursor> NpbWorkload::cursor(
    const BuildContext& ctx) const {
  validate(ctx);
  const int p = ctx.ranks;
  // bt/sp, cg and mg pair rank r with r ^ 2^k, which covers every rank
  // only at a power-of-two count; at any other count the model would
  // silently drop their point-to-point traffic.  The all-to-all (ft, is)
  // and pipeline (lu) patterns exchange at any count, and ep has none.
  const bool xor_partners = spec_.pattern == NpbPattern::kNeighbors ||
                            spec_.pattern == NpbPattern::kSparse ||
                            spec_.pattern == NpbPattern::kMultigrid;
  const auto count = static_cast<unsigned>(p);
  if (xor_partners && !std::has_single_bit(count)) {
    throw Error(spec_.tag + " needs a power-of-two rank count, got " +
                std::to_string(p) + " (nearest valid: " +
                std::to_string(std::bit_floor(count)) + " or " +
                std::to_string(std::bit_ceil(count)) + ")");
  }

  // Strong scaling from the 32-rank calibration point.
  const double work_scale = 32.0 / p * ctx.size_scale;
  const double instr = spec_.instructions_per_rank_iter * work_scale;
  // Surface-to-volume: faces shrink as (1/P)^(2/3) relative to reference.
  const double face_scale =
      std::pow(32.0 / p, 2.0 / 3.0) * ctx.size_scale;
  const Bytes face = std::max<Bytes>(
      static_cast<Bytes>(static_cast<double>(spec_.comm_unit) * face_scale),
      64);
  // All-to-all per-pair payloads shrink as 1/P² (fixed total volume).
  const Bytes pair_bytes = std::max<Bytes>(
      static_cast<Bytes>(static_cast<double>(spec_.comm_unit) *
                         (32.0 * 32.0) / (static_cast<double>(p) * p) *
                         ctx.size_scale),
      64);
  const std::vector<double> jitters =
      imbalance_factors(spec_.tag, p, spec_.imbalance);
  const NpbSpec spec = spec_;

  // One iteration per step, then one step for the terminal verification
  // reduction (every NPB code ends with one).
  // SOC_SHARED(single-thread): the loop state belongs to this cursor.
  return make_cursor([=, next_it = 0](msg::ProgramSet& ps) mutable {
    if (next_it > spec.iterations) return false;
    const int it = next_it++;
    if (it == spec.iterations) {
      if (p > 1) msg::allreduce(ps, 80);
      return true;
    }
    if (it % 10 == 0) ps.begin_phase();

    // Pipeline sweeps interleave compute and messaging; everything else
    // computes first, then communicates.
    if (spec.pattern == NpbPattern::kPipeline && p > 1) {
      // Forward and backward SSOR wavefronts.  Many fronts pipeline
      // through the rank chain, so the serialized portion is only the
      // pipeline fill (~two fronts' worth of one rank's work); the rest
      // of each rank's sweep overlaps with its neighbours.
      for (int dir = 0; dir < 2; ++dir) {
        std::vector<int> tags(static_cast<std::size_t>(p));
        for (int& t : tags) t = ps.next_tag();
        const double sweep_instr = instr / 2.0;
        const double fill_instr = sweep_instr * 0.7 / p;
        for (int s = 0; s < p; ++s) {
          const int r = dir == 0 ? s : p - 1 - s;
          const int prev = dir == 0 ? r - 1 : r + 1;
          const int next = dir == 0 ? r + 1 : r - 1;
          if (prev >= 0 && prev < p) {
            ps.add(r, sim::recv_op(prev, face,
                                   tags[static_cast<std::size_t>(prev)]));
          }
          const double jitter = jitters[static_cast<std::size_t>(r)];
          auto emit_cpu = [&](double i) {
            ps.add(r, sim::cpu_op(i, i * spec.flops_per_instruction,
                                  static_cast<Bytes>(
                                      i * spec.dram_bytes_per_instruction),
                                  /*profile=*/0));
          };
          emit_cpu(fill_instr * jitter);
          if (next >= 0 && next < p) {
            ps.add(r, sim::send_op(next, face,
                                   tags[static_cast<std::size_t>(r)]));
          }
          emit_cpu((sweep_instr - fill_instr) * jitter);
        }
      }
      return true;
    }

    for (int r = 0; r < p; ++r) {
      const double jitter = jitters[static_cast<std::size_t>(r)];
      const double i = instr * jitter;
      ps.add(r, sim::cpu_op(i, i * spec.flops_per_instruction,
                            static_cast<Bytes>(
                                i * spec.dram_bytes_per_instruction),
                            /*profile=*/0));
    }
    if (p == 1) return true;

    switch (spec.pattern) {
      case NpbPattern::kNeighbors:
        // Three face exchanges per step (multipartition x/y/z sweeps).
        for (int shift : {1, 2, 4}) {
          if (shift >= p) continue;
          for (int r = 0; r < p; ++r) {
            const int partner = r ^ shift;
            if (r < partner && partner < p) ps.exchange(r, partner, face);
          }
        }
        break;
      case NpbPattern::kSparse:
        // Segment exchanges along a hypercube + two dot reductions.
        for (int shift = 1; shift < p; shift <<= 1) {
          for (int r = 0; r < p; ++r) {
            const int partner = r ^ shift;
            if (r < partner) ps.exchange(r, partner, face);
          }
        }
        msg::allreduce(ps, 8);
        msg::allreduce(ps, 8);
        break;
      case NpbPattern::kNone:
        break;
      case NpbPattern::kAllToAll:
        msg::alltoall(ps, pair_bytes);
        break;
      case NpbPattern::kPipeline:
        break;  // handled above
      case NpbPattern::kMultigrid: {
        // Halos at every level, sizes halving; coarse-grid reduction.
        Bytes level_face = face;
        for (int level = 0; level < 8 && level_face >= 64; ++level) {
          const int shift =
              1 << (level % std::bit_width(static_cast<unsigned>(p - 1)));
          for (int r = 0; r < p; ++r) {
            const int partner = r ^ shift;
            if (r < partner && partner < p) {
              ps.exchange(r, partner, level_face);
            }
          }
          level_face /= 2;
        }
        msg::allreduce(ps, 8);
        break;
      }
    }
    return true;
  });
}

NpbSpec npb_bt_spec() {
  NpbSpec s;
  s.tag = "bt";
  s.iterations = 200;
  s.instructions_per_rank_iter = 3.0e8;
  s.flops_per_instruction = 0.36;
  s.dram_bytes_per_instruction = 0.30;
  s.imbalance = 0.06;
  s.pattern = NpbPattern::kNeighbors;
  s.comm_unit = 200 * kKB;
  return s;
}

NpbSpec npb_cg_spec() {
  NpbSpec s;
  s.tag = "cg";
  // 75 outer iterations × 25 inner CG steps: every step synchronizes on
  // dot-product allreduces, which is what makes cg latency-sensitive.
  s.iterations = 1875;
  s.instructions_per_rank_iter = 8.0e6;
  s.flops_per_instruction = 0.30;
  s.dram_bytes_per_instruction = 1.2;
  s.imbalance = 0.28;
  s.pattern = NpbPattern::kSparse;
  s.comm_unit = 37 * kKB;
  return s;
}

NpbSpec npb_ep_spec() {
  NpbSpec s;
  s.tag = "ep";
  s.iterations = 16;
  s.instructions_per_rank_iter = 3.75e9;
  s.flops_per_instruction = 0.25;
  s.dram_bytes_per_instruction = 1.5;
  s.imbalance = 0.02;
  s.pattern = NpbPattern::kNone;
  s.comm_unit = 80;
  return s;
}

NpbSpec npb_ft_spec() {
  NpbSpec s;
  s.tag = "ft";
  s.iterations = 20;
  s.instructions_per_rank_iter = 2.5e9;
  s.flops_per_instruction = 0.34;
  s.dram_bytes_per_instruction = 0.8;
  s.imbalance = 0.05;
  s.pattern = NpbPattern::kAllToAll;
  s.comm_unit = 4 * kMB;  // per-pair transpose payload at 32 ranks
  return s;
}

NpbSpec npb_is_spec() {
  NpbSpec s;
  s.tag = "is";
  s.iterations = 10;
  s.instructions_per_rank_iter = 6.0e8;
  s.flops_per_instruction = 0.02;
  s.dram_bytes_per_instruction = 0.9;
  s.imbalance = 0.08;
  s.pattern = NpbPattern::kAllToAll;
  s.comm_unit = 1 * kMB;
  return s;
}

NpbSpec npb_lu_spec() {
  NpbSpec s;
  s.tag = "lu";
  s.iterations = 250;
  s.instructions_per_rank_iter = 1.5e8;
  s.flops_per_instruction = 0.32;
  s.dram_bytes_per_instruction = 0.4;
  s.imbalance = 0.22;
  s.pattern = NpbPattern::kPipeline;
  s.comm_unit = 40 * kKB;
  return s;
}

NpbSpec npb_mg_spec() {
  NpbSpec s;
  s.tag = "mg";
  s.iterations = 60;
  s.instructions_per_rank_iter = 5.0e8;
  s.flops_per_instruction = 0.30;
  s.dram_bytes_per_instruction = 1.0;
  s.imbalance = 0.10;
  s.pattern = NpbPattern::kMultigrid;
  s.comm_unit = 256 * kKB;
  return s;
}

NpbSpec npb_sp_spec() {
  NpbSpec s;
  s.tag = "sp";
  s.iterations = 400;
  s.instructions_per_rank_iter = 1.5e8;
  s.flops_per_instruction = 0.34;
  s.dram_bytes_per_instruction = 0.4;
  s.imbalance = 0.07;
  s.pattern = NpbPattern::kNeighbors;
  s.comm_unit = 120 * kKB;
  return s;
}

}  // namespace soc::workloads
