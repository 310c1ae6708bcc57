#include "workloads/scientific.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "msg/collectives.h"
#include "msg/program_set.h"
#include "workloads/profiles.h"

namespace soc::workloads {

namespace {

using sim::MemModel;

// FNV-1a for deterministic per-workload jitter streams.
std::uint64_t name_seed(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

// Emits the halo staging copies the host+device model needs; zero-copy
// and unified memory keep the data visible to both sides.
void stage_out(msg::ProgramSet& ps, int rank, Bytes bytes, MemModel mm) {
  if (mm == MemModel::kHostDevice) {
    ps.add(rank, sim::copy_d2h_op(bytes, mm));
  }
}

void stage_in(msg::ProgramSet& ps, int rank, Bytes bytes, MemModel mm) {
  if (mm == MemModel::kHostDevice) {
    ps.add(rank, sim::copy_h2d_op(bytes, mm));
  }
}

// 1D slab halo exchange among consecutive ranks.  Even pairs exchange
// first, then odd pairs, so disjoint pairs proceed in parallel instead of
// serializing down the rank chain.
void halo_exchange_1d(msg::ProgramSet& ps, Bytes face_bytes, MemModel mm) {
  const int p = ps.ranks();
  for (int r = 0; r < p; ++r) {
    stage_out(ps, r, 2 * face_bytes, mm);
  }
  for (int parity = 0; parity < 2; ++parity) {
    for (int r = parity; r + 1 < p; r += 2) {
      ps.exchange(r, r + 1, face_bytes);
    }
  }
  for (int r = 0; r < p; ++r) {
    stage_in(ps, r, 2 * face_bytes, mm);
  }
}

}  // namespace

double imbalance_factor(const std::string& workload, int rank,
                        double amount) {
  SOC_CHECK(amount >= 0.0 && amount < 1.0, "bad imbalance amount");
  if (amount == 0.0) return 1.0;
  Rng rng = Rng(name_seed(workload)).split(static_cast<std::uint64_t>(rank));
  return 1.0 + amount * (2.0 * rng.next_double() - 1.0);
}

std::vector<double> imbalance_factors(const std::string& workload, int count,
                                      double amount) {
  std::vector<double> factors;
  for (int i = 0; i < count; ++i) {
    factors.push_back(imbalance_factor(workload, i, amount));
  }
  return factors;
}

// ---------------------------------------------------------------- hpl --

HplWorkload::HplWorkload(std::size_t n, std::size_t nb) : n_(n), nb_(nb) {
  SOC_CHECK(n_ >= 4 * nb_ && nb_ >= 32, "bad hpl geometry");
}

arch::WorkloadProfile HplWorkload::cpu_profile() const {
  return profiles::hpl();
}

double HplWorkload::total_flops() const {
  const double n = static_cast<double>(n_);
  return (2.0 / 3.0) * n * n * n;
}

std::unique_ptr<WorkloadCursor> HplWorkload::cursor(
    const BuildContext& ctx) const {
  validate(ctx);
  const int nodes = ctx.nodes;
  const int ranks = ctx.ranks;
  const int rpn = ranks / nodes;
  SOC_REQUIRE(rpn == 1 || rpn == 4,
              "hpl runs 1 rank per node (GPU) or 4 (CPU or colocated), got " +
                  std::to_string(rpn));

  const auto n = static_cast<std::size_t>(
      static_cast<double>(n_) * std::cbrt(ctx.size_scale));
  const std::size_t panel = nb_;

  // Work split.  Fig 7 sweeps `gpu_work_fraction`; Table IV adds the
  // colocated mode (one GPU-driving rank + 3 CPU ranks per node).  The
  // colocated split balances the GPU against three A57 cores running
  // NEON DGEMM so neither side idles.
  const bool colocated = rpn == 4 && ctx.gpu_work_fraction > 0.0;
  const double gpu_share = rpn == 1 ? ctx.gpu_work_fraction
                           : colocated ? 0.58 * ctx.gpu_work_fraction
                                       : 0.0;

  // Hierarchical communication: panel traffic moves between node leaders
  // over the network and fans out node-locally (what a sane process grid
  // does); with one rank per node every rank is a leader.
  std::vector<int> leaders;
  for (int r = 0; r < ranks; r += rpn) leaders.push_back(r);
  const std::vector<double> jitters = imbalance_factors(name(), ranks, 0.04);

  // One panel per step, until less than a full panel remains.
  // SOC_SHARED(single-thread): the loop state belongs to this cursor.
  return make_cursor([=, k = std::size_t{0}](msg::ProgramSet& ps) mutable {
    const double m = static_cast<double>(n) -
                     static_cast<double>((k + 1) * panel);
    if (m < static_cast<double>(panel)) return false;
    ps.begin_phase();
    const double nb = static_cast<double>(panel);
    const int root = static_cast<int>(k++ % static_cast<std::size_t>(ranks));

    // Distributed panel factorization (CPU): Σ m·nb² flops over ranks.
    const double panel_flops = m * nb * nb / ranks;
    for (int r = 0; r < ranks; ++r) {
      const double jitter = jitters[static_cast<std::size_t>(r)];
      ps.add(r, sim::cpu_op(panel_flops * 0.8 * jitter, panel_flops,
                            static_cast<Bytes>(m * nb * 8.0 / ranks),
                            /*profile=*/0));
    }

    // Panel broadcast + U broadcast + pivot-row swaps: the three
    // communication streams of right-looking LU.  A 2D process grid
    // spreads the panel over √P node columns, so per-node traffic shrinks
    // as the cluster grows (this is what lets hpl keep scaling).
    const double grid_factor =
        2.0 / std::sqrt(static_cast<double>(leaders.size()));
    const Bytes panel_bytes =
        static_cast<Bytes>(nb * m * 8.0 * grid_factor);
    const std::size_t root_leader =
        static_cast<std::size_t>(root / rpn) % leaders.size();
    for (int rep = 0; rep < 2; ++rep) {
      msg::broadcast_group(ps, leaders, root_leader, panel_bytes);
      if (rpn > 1) {
        // Node-local fan-out (shared-memory path).
        for (int leader : leaders) {
          for (int local = 1; local < rpn; ++local) {
            ps.send_recv(leader, leader + local, panel_bytes);
          }
        }
      }
    }
    for (std::size_t i = 0; i + 1 < leaders.size(); i += 2) {
      ps.exchange(leaders[i], leaders[i + 1], panel_bytes / 4);
    }

    // Trailing-matrix update: 2·nb·m² flops split GPU/CPU per the ratio.
    const double update_flops = 2.0 * nb * m * m / ranks;
    for (int r = 0; r < ranks; ++r) {
      const double jitter = jitters[static_cast<std::size_t>(r)];
      const bool drives_gpu = rpn == 1 || r % rpn == 0;
      double cpu_part = update_flops * (1.0 - gpu_share);
      if (colocated) {
        // The GPU rank's core is reserved for transfers; CPU work goes to
        // the other three ranks.
        cpu_part = drives_gpu ? 0.0
                              : update_flops * (1.0 - gpu_share) * 4.0 / 3.0;
      }
      if (drives_gpu && gpu_share > 0.0) {
        const double gpu_flops = update_flops * gpu_share *
                                 (rpn == 1 ? 1.0 : 4.0) * jitter;
        stage_in(ps, r, panel_bytes, ctx.mem_model);
        ps.add(r, sim::gpu_op(gpu_flops,
                              static_cast<Bytes>(gpu_flops / 2.0),
                              ctx.mem_model, ps.phase(), m * m / ranks));
      }
      if (cpu_part > 0.0) {
        // NEON-blocked DGEMM sustains ~3 DP GFLOP/s per A57 core —
        // comparable to the Maxwell GPU's crippled 1/32-rate DP units,
        // which is exactly why colocation pays on this SoC (Table IV).
        ps.add(r, sim::cpu_op(cpu_part * 0.35 * jitter, cpu_part,
                              static_cast<Bytes>(cpu_part / 4.0),
                              /*profile=*/0));
      }
    }
    return true;
  });
}

// ------------------------------------------------------------- jacobi --

JacobiWorkload::JacobiWorkload(std::size_t grid, int iterations)
    : grid_(grid), iterations_(iterations) {
  SOC_CHECK(grid_ >= 64 && iterations_ >= 1, "bad jacobi geometry");
}

arch::WorkloadProfile JacobiWorkload::cpu_profile() const {
  return profiles::jacobi();
}

std::unique_ptr<WorkloadCursor> JacobiWorkload::cursor(
    const BuildContext& ctx) const {
  validate(ctx);
  SOC_REQUIRE(ctx.ranks == ctx.nodes, "jacobi runs one rank per node");
  const int p = ctx.ranks;
  const auto g = static_cast<std::size_t>(
      static_cast<double>(grid_) * std::sqrt(ctx.size_scale));

  const double points = static_cast<double>(g) * static_cast<double>(g) / p;
  const Bytes face = static_cast<Bytes>(g) * 8;
  const std::vector<double> jitters = imbalance_factors(name(), p, 0.03);
  const int iterations = iterations_;
  // SOC_SHARED(single-thread): the loop state belongs to this cursor.
  return make_cursor([=, it = 0](msg::ProgramSet& ps) mutable {
    if (it == iterations) return false;
    if (it % 25 == 0) ps.begin_phase();

    if (ctx.overlap_halos && p > 1) {
      // Post the halo traffic, sweep the interior while it flies, then
      // wait and finish the boundary rows.
      for (int parity = 0; parity < 2; ++parity) {
        for (int r = parity; r + 1 < p; r += 2) {
          ps.exchange_async(r, r + 1, face);
        }
      }
      constexpr double kInterior = 0.96;
      for (int r = 0; r < p; ++r) {
        const double jitter = jitters[static_cast<std::size_t>(r)];
        const double flops = 6.0 * points * jitter;
        ps.add(r, sim::gpu_op(flops * kInterior,
                              static_cast<Bytes>(flops * kInterior / 0.25),
                              ctx.mem_model, ps.phase(), points));
        ps.wait_all(r);
        ps.add(r,
               sim::gpu_op(flops * (1.0 - kInterior),
                           static_cast<Bytes>(flops * (1.0 - kInterior) /
                                              0.25),
                           ctx.mem_model, ps.phase(), points * 0.04));
      }
    } else {
      // One sweep on the GPU: 6 flops/point at operational intensity 0.25.
      for (int r = 0; r < p; ++r) {
        const double jitter = jitters[static_cast<std::size_t>(r)];
        const double flops = 6.0 * points * jitter;
        ps.add(r, sim::gpu_op(flops, static_cast<Bytes>(flops / 0.25),
                              ctx.mem_model, ps.phase(), points));
      }
      if (p > 1) halo_exchange_1d(ps, face, ctx.mem_model);
    }

    // Convergence check every 10 sweeps: device dot + allreduce.
    if (it % 10 == 9) {
      for (int r = 0; r < p; ++r) {
        ps.add(r, sim::cpu_op(5e5, 1e5, 64 * kKiB, /*profile=*/0));
      }
      if (p > 1) msg::allreduce(ps, 8);
    }
    ++it;
    return true;
  });
}

// --------------------------------------------------------- cloverleaf --

CloverLeafWorkload::CloverLeafWorkload(std::size_t grid, int steps)
    : grid_(grid), steps_(steps) {
  SOC_CHECK(grid_ >= 64 && steps_ >= 1, "bad cloverleaf geometry");
}

arch::WorkloadProfile CloverLeafWorkload::cpu_profile() const {
  return profiles::cloverleaf();
}

std::unique_ptr<WorkloadCursor> CloverLeafWorkload::cursor(
    const BuildContext& ctx) const {
  validate(ctx);
  SOC_REQUIRE(ctx.ranks == ctx.nodes, "cloverleaf runs one rank per node");
  const int p = ctx.ranks;
  const auto g = static_cast<std::size_t>(
      static_cast<double>(grid_) * std::sqrt(ctx.size_scale));

  const double points = static_cast<double>(g) * static_cast<double>(g) / p;
  const int kernels_per_step = 8;
  const double flops_per_point = 60.0;
  // Six conserved/auxiliary fields exchange halos every step.
  const Bytes halo = static_cast<Bytes>(g) * 8 * 6;
  const std::vector<double> jitters =
      imbalance_factors(name(), p * kernels_per_step, 0.08);
  const int steps = steps_;

  // SOC_SHARED(single-thread): the loop state belongs to this cursor.
  return make_cursor([=, step = 0](msg::ProgramSet& ps) mutable {
    if (step == steps) return false;
    if (step % 10 == 0) ps.begin_phase();
    for (int k = 0; k < kernels_per_step; ++k) {
      for (int r = 0; r < p; ++r) {
        const double jitter = jitters[static_cast<std::size_t>(r * 8 + k)];
        const double flops =
            points * flops_per_point / kernels_per_step * jitter;
        ps.add(r, sim::gpu_op(flops, static_cast<Bytes>(flops / 0.3),
                              ctx.mem_model, ps.phase(), points));
        // Host control flow between kernels: partially size-dependent
        // (field summaries) plus a fixed driver cost — the serialization
        // term that caps cloverleaf's scalability.
        ps.add(r, sim::cpu_op(3.0e6 + points * 0.15, points * 0.1,
                              static_cast<Bytes>(points), /*profile=*/0));
      }
    }
    if (p > 1) halo_exchange_1d(ps, halo, ctx.mem_model);

    // Two full field snapshots move host<->device per step (viscosity /
    // summary checks in the reference port) — pure host/device sync.
    if (ctx.mem_model == sim::MemModel::kHostDevice) {
      for (int r = 0; r < p; ++r) {
        ps.add(r, sim::copy_d2h_op(static_cast<Bytes>(points * 8.0),
                                   ctx.mem_model));
        ps.add(r, sim::copy_h2d_op(static_cast<Bytes>(points * 8.0),
                                   ctx.mem_model));
      }
    }

    // dt reduction.
    for (int r = 0; r < p; ++r) {
      ps.add(r, sim::cpu_op(4e5, 1e5, 32 * kKiB, /*profile=*/0));
    }
    if (p > 1) msg::allreduce(ps, 8);
    ++step;
    return true;
  });
}

// -------------------------------------------------------------- tealeaf --

TeaLeafWorkload::TeaLeafWorkload(int dims, std::size_t extent, int timesteps,
                                 int cg_iterations)
    : dims_(dims),
      extent_(extent),
      timesteps_(timesteps),
      cg_iterations_(cg_iterations) {
  SOC_CHECK(dims_ == 2 || dims_ == 3, "tealeaf is 2D or 3D");
  SOC_CHECK(extent_ >= 32 && timesteps_ >= 1 && cg_iterations_ >= 1,
            "bad tealeaf geometry");
}

arch::WorkloadProfile TeaLeafWorkload::cpu_profile() const {
  return profiles::tealeaf();
}

std::unique_ptr<WorkloadCursor> TeaLeafWorkload::cursor(
    const BuildContext& ctx) const {
  validate(ctx);
  SOC_REQUIRE(ctx.ranks == ctx.nodes, "tealeaf runs one rank per node");
  const int p = ctx.ranks;
  const double scale = dims_ == 2 ? std::sqrt(ctx.size_scale)
                                  : std::cbrt(ctx.size_scale);
  const auto e = static_cast<std::size_t>(static_cast<double>(extent_) *
                                          scale);

  const double points = std::pow(static_cast<double>(e), dims_) / p;
  const Bytes face =
      dims_ == 2 ? static_cast<Bytes>(e) * 8
                 : static_cast<Bytes>(e) * static_cast<Bytes>(e) * 8;
  const double oi = dims_ == 2 ? 0.22 : 0.20;
  const std::vector<double> jitters = imbalance_factors(name(), p, 0.12);
  const int timesteps = timesteps_;
  const int cg_iterations = cg_iterations_;

  // One CG iteration per step; the first of each timestep opens its phase.
  // SOC_SHARED(single-thread): the loop state belongs to this cursor.
  return make_cursor([=, step = 0, it = 0](msg::ProgramSet& ps) mutable {
    if (step == timesteps) return false;
    if (it == 0) ps.begin_phase();
    if (++it == cg_iterations) {
      it = 0;
      ++step;
    }
    const bool overlap = ctx.overlap_halos && p > 1;
    if (overlap) {
      for (int parity = 0; parity < 2; ++parity) {
        for (int r = parity; r + 1 < p; r += 2) {
          ps.exchange_async(r, r + 1, face);
        }
      }
    }
    // SpMV + axpys on the GPU: ~16 flops/point (7/5-point operator).
    for (int r = 0; r < p; ++r) {
      const double jitter = jitters[static_cast<std::size_t>(r)];
      const double flops = 16.0 * points * jitter;
      ps.add(r, sim::gpu_op(flops, static_cast<Bytes>(flops / oi),
                            ctx.mem_model, ps.phase(), points));
      // The unoptimized CUDA port syncs a large slice of the solution
      // vector between host and device every CG step — the host/device
      // serialization the paper's Ser factor exposes.
      if (ctx.mem_model == sim::MemModel::kHostDevice) {
        ps.add(r, sim::copy_d2h_op(static_cast<Bytes>(points * 4.0),
                                   ctx.mem_model));
      }
      if (overlap) ps.wait_all(r);
    }
    if (!overlap && p > 1) halo_exchange_1d(ps, face, ctx.mem_model);

    // Two dot products per CG iteration — each a cluster allreduce.
    for (int r = 0; r < p; ++r) {
      ps.add(r, sim::cpu_op(3e5, 1e5, 16 * kKiB, /*profile=*/0));
    }
    if (p > 1) {
      msg::allreduce(ps, 8);
      msg::allreduce(ps, 8);
    }
    return true;
  });
}

TeaLeafWorkload tealeaf2d_default() {
  return TeaLeafWorkload(2, 8192, 60, 40);
}

TeaLeafWorkload tealeaf3d_default() {
  return TeaLeafWorkload(3, 400, 60, 40);
}

}  // namespace soc::workloads
