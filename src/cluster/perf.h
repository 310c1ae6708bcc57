// Engine-only performance harness.
//
// Times Engine::run over pre-built programs — workload generation, cost
// model construction, and reporting all happen outside the timed region —
// so the number it reports is the replay engine's own throughput
// (committed events per wall-clock second), comparable across commits on
// the same machine.  Each case also records the run's event checksum:
// the harness doubles as a cross-build determinism probe (CI compares the
// checksum lines of an -O2 build against a sanitizer build).
//
// The `soccluster-perf-report/v1` artifact this emits is the
// perf-regression trajectory: every future change to src/sim/ lands with
// a before/after BENCH_engine.json from the same machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace soc::cluster {

/// One engine-only replay target (mirrors the fig5/fig6 bench shapes).
struct PerfCase {
  std::string name;      ///< Stable label, e.g. "fig5/hpl".
  std::string workload;  ///< Registry name for workloads::make_workload.
  int nodes = 16;
  int ranks = 16;
  bool ideal_network = false;
};

struct PerfConfig {
  int reps = 5;  ///< Timed repetitions per case (one warm-up rep extra).
};

/// Measurement for one case, aggregated over the timed repetitions.
struct PerfSample {
  std::string name;
  std::uint64_t events = 0;    ///< Committed events per repetition.
  std::uint64_t checksum = 0;  ///< RunStats::event_checksum (rep-invariant).
  int reps = 0;
  double wall_seconds = 0.0;       ///< Total over the timed reps.
  double events_per_second = 0.0;
  double allocs_per_event = 0.0;   ///< 0 unless soc_alloc_hooks is linked.
  std::uint64_t memo_hits = 0;     ///< Cost-model cache hits (all reps).
  std::uint64_t memo_misses = 0;
};

struct PerfReport {
  std::vector<PerfSample> samples;
  double total_events = 0.0;        ///< Sum over samples, all reps.
  double total_wall_seconds = 0.0;
  double events_per_second = 0.0;   ///< Aggregate throughput.
  bool alloc_counter_live = false;  ///< soc_alloc_hooks linked into binary.
  /// std::thread::hardware_concurrency() of the measuring host (0 =
  /// unknown, e.g. a baseline written before the field existed).
  unsigned hardware_concurrency = 0;
  /// Compiler id and version, and CMAKE_BUILD_TYPE, of the measuring
  /// build ("" in a baseline written before the fields existed).
  std::string compiler;
  std::string build_type;
};

/// The fig5/fig6 replay shapes at 16 nodes (the scalability benches'
/// largest point), measured and ideal-network each.  `quick` trims to two
/// small 4-node cases for CI smoke use.
std::vector<PerfCase> default_perf_cases(bool quick);

/// Runs every case: builds programs and cost model, one untimed warm-up
/// repetition, then `config.reps` timed Engine::run calls.
PerfReport measure_engine(const std::vector<PerfCase>& cases,
                          const PerfConfig& config);

/// Renders the `soccluster-perf-report/v1` JSON document.
std::string perf_report_json(const PerfReport& report);

/// Writes perf_report_json to `path` (parent directory must exist).
void write_perf_report(const std::string& path, const PerfReport& report);

/// Reads a perf_report_json document (the committed BENCH_engine.json
/// baseline) back.  Only the comparison fields are recovered: the
/// report's hardware_concurrency, compiler and build_type and, per
/// sample, name, events, checksum and events_per_second.
PerfReport load_perf_baseline(const std::string& path);

/// Compares a fresh report against a committed baseline: cases present in
/// both must agree exactly on events and checksum (simulation
/// determinism is machine-independent) and may not drop below
/// `tolerance` x the baseline's events/s (wall-clock is machine-dependent,
/// so the throughput gate is deliberately loose).  At least one case must
/// match by name.  Returns the failures, one newline-terminated line
/// each; empty means the gate passed.
std::string diff_perf_baseline(const PerfReport& report,
                               const PerfReport& baseline, double tolerance);

}  // namespace soc::cluster
