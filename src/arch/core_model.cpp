#include "arch/core_model.h"

#include <algorithm>
#include <cmath>

#include "arch/streams.h"
#include "common/error.h"

namespace soc::arch {

namespace {

// Shrinks a cache config to its contended effective capacity, keeping the
// geometry legal (power-of-two set count).
CacheConfig contended(CacheConfig c, double contention) {
  if (contention <= 1.0) return c;
  Bytes target = static_cast<Bytes>(
      static_cast<double>(c.size) / contention);
  target = std::max<Bytes>(target, c.line_size * c.associativity);
  // Round down to the nearest power-of-two multiple of one way's line span.
  Bytes size = c.line_size * c.associativity;
  while (size * 2 <= target) size *= 2;
  c.size = size;
  return c;
}

}  // namespace

Characterization characterize(const CoreConfig& core,
                              const WorkloadProfile& profile,
                              std::size_t sample_instructions) {
  SOC_CHECK(sample_instructions >= 10'000, "sample too small to be stable");
  const double mem_fraction =
      profile.load_fraction + profile.store_fraction;
  SOC_CHECK(mem_fraction > 0.0 && mem_fraction < 1.0, "bad memory fraction");

  // --- Drive the structures with deterministic streams. ---
  const auto mem_events = static_cast<std::size_t>(
      static_cast<double>(sample_instructions) * mem_fraction);
  const auto branch_events = static_cast<std::size_t>(
      static_cast<double>(sample_instructions) * profile.branch_fraction);

  // Each event is consumed as it is generated, so no stream is held.
  // Materialized streams (5.6 MB of memory accesses at the default sample)
  // raise glibc's dynamic mmap threshold when freed; a later run's
  // multi-MB buffers then come from the brk heap and stay resident.
  CacheHierarchy hierarchy(core.l1d, contended(core.l2, core.l2_contention));
  Tlb dtlb(core.dtlb);
  MemoryStream memory(profile);
  for (std::size_t i = 0; i < std::max<std::size_t>(mem_events, 1); ++i) {
    const std::uint64_t address = memory.next().address;
    hierarchy.access(address);
    dtlb.access(address);
  }

  auto predictor = make_predictor(core.predictor, core.predictor_entries,
                                  core.predictor_history_bits);
  BranchStream branches(profile);
  for (std::size_t i = 0; i < std::max<std::size_t>(branch_events, 1); ++i) {
    const BranchEvent b = branches.next();
    predictor->record(b.pc, b.taken);
  }

  Characterization ch;
  ch.l1d_miss_ratio = hierarchy.l1().stats().miss_ratio();
  ch.l2d_miss_ratio = hierarchy.l2().stats().miss_ratio();
  ch.dtlb_miss_ratio = dtlb.stats().miss_ratio();
  ch.branch_misprediction_ratio = predictor->stats().misprediction_ratio();

  // --- Compose the CPI stack. ---
  const double br_per_inst = profile.branch_fraction;
  const double mem_per_inst = mem_fraction;
  const double l1_refill_per_inst = mem_per_inst * ch.l1d_miss_ratio;
  const double l2_refill_per_inst = l1_refill_per_inst * ch.l2d_miss_ratio;

  const double frontend_stall =
      br_per_inst * ch.branch_misprediction_ratio * core.mispredict_penalty;
  const double backend_stall =
      (l1_refill_per_inst - l2_refill_per_inst) * core.l2_hit_latency /
          core.memory_level_parallelism +
      l2_refill_per_inst * core.dram_latency /
          core.memory_level_parallelism +
      mem_per_inst * ch.dtlb_miss_ratio * core.tlb_walk_penalty /
          core.memory_level_parallelism;
  const double base = 1.0 / core.issue_width +
                      profile.fp_fraction * core.fp_extra_cpi;
  ch.cpi = base + frontend_stall + backend_stall;

  // --- Per-instruction PMU events. ---
  CounterSet& pc = ch.per_instruction;
  pc[PmuEvent::kCpuCycles] = ch.cpi;
  pc[PmuEvent::kInstRetired] = 1.0;
  // Each mispredict fetches tens of wrong-path instructions before the
  // redirect resolves (fetch-ahead depth, similar across these cores);
  // that waste *is* the INST_SPEC inflation the paper sees on the
  // ThunderX, and it tracks the misprediction *rate*.
  constexpr double kWrongPathPerMispredict = 40.0;
  pc[PmuEvent::kInstSpec] =
      1.0 + br_per_inst * ch.branch_misprediction_ratio *
                kWrongPathPerMispredict;
  pc[PmuEvent::kBrRetired] = br_per_inst;
  pc[PmuEvent::kBrMisPred] = br_per_inst * ch.branch_misprediction_ratio;
  pc[PmuEvent::kL1dCache] = mem_per_inst;
  pc[PmuEvent::kL1dCacheRefill] = l1_refill_per_inst;
  pc[PmuEvent::kL2dCache] = l1_refill_per_inst;
  pc[PmuEvent::kL2dCacheRefill] = l2_refill_per_inst;
  pc[PmuEvent::kMemAccess] = mem_per_inst;
  pc[PmuEvent::kStallFrontend] = frontend_stall;
  pc[PmuEvent::kStallBackend] = backend_stall;

  ch.dram_bytes_per_instruction =
      l2_refill_per_inst * static_cast<double>(core.l2.line_size);
  return ch;
}

}  // namespace soc::arch
