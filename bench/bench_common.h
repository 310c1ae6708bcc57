// Shared helpers for the benchmark harness binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/report.h"
#include "common/args.h"
#include "common/error.h"
#include "common/io.h"
#include "common/table.h"
#include "core/efficiency.h"
#include "core/extended_roofline.h"
#include "core/scaling.h"
#include "net/network.h"
#include "obs/json.h"
#include "sweep/grid.h"
#include "sweep/sweep.h"
#include "systems/machines.h"
#include "workloads/workload.h"

namespace soc::bench {

/// A RunRequest against a TX1 cluster — the unit the sweep runner shards.
inline cluster::RunRequest tx1_request(std::string workload, net::NicKind nic,
                                       int nodes, int ranks,
                                       cluster::RunOptions options = {}) {
  cluster::RunRequest request;
  request.workload = std::move(workload);
  request.config = {systems::jetson_tx1(nic), nodes, ranks};
  request.options = options;
  return request;
}

/// Reports a usage mistake (a bad flag or thread count, an artifact path
/// that cannot be written) as one `bench: <reason>` line and exits 2.
[[noreturn]] inline void usage_exit(const UsageError& e) {
  std::fprintf(stderr, "bench: %s\n", e.what());
  std::exit(2);
}

/// For the benches that take no arguments: any argument prints
/// `bench: unknown flag: <arg>` and exits 2 before any run.
inline void reject_arguments(int argc, char** argv) {
  if (argc > 1) usage_exit(UsageError(std::string("unknown flag: ") + argv[1]));
}

/// Shared sweep configuration for every bench binary: `--sweep-threads=N`
/// (or `--sweep-threads N`) picks the host fan-out, `--progress` turns on
/// the stderr ETA narrator; the SOC_SWEEP_THREADS and SOC_SWEEP_PROGRESS
/// environment variables are the flag-less equivalents (flags win).
/// A bad thread count (socbench's parser), any other argument, or
/// `--sweep-threads` without a value exits 2 before any run.  Thread
/// count never changes bench output — only wall-clock.
inline sweep::SweepOptions sweep_options(int argc, char** argv,
                                         std::string label) {
  sweep::SweepOptions options;
  options.label = std::move(label);
  try {
    if (const char* env = std::getenv("SOC_SWEEP_THREADS");
        env != nullptr && *env != '\0') {
      options.threads = parse_thread_count(env, "SOC_SWEEP_THREADS");
    }
    if (const char* env = std::getenv("SOC_SWEEP_PROGRESS");
        env != nullptr && *env != '\0' && std::string(env) != "0") {
      options.progress = true;
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--sweep-threads=", 0) == 0) {
        options.threads = parse_thread_count(arg.substr(16), "--sweep-threads");
      } else if (arg == "--sweep-threads") {
        if (i + 1 == argc) {
          throw UsageError("flag --sweep-threads needs a value");
        }
        options.threads = parse_thread_count(argv[++i], "--sweep-threads");
      } else if (arg == "--progress") {
        options.progress = true;
      } else {
        throw UsageError("unknown flag: " + arg +
                         " (use --sweep-threads N or --progress)");
      }
    }
  } catch (const UsageError& e) {
    usage_exit(e);
  }
  return options;
}

/// The tables of Figs 5 and 6 for a `grid` measured on {1GbE, 10GbE}
/// (`results`, in grid order) and replayed on 10GbE (`scenario_runs`, in
/// `replays` order): each workload's scaling models fitted to both NICs'
/// runs and to the ideal-network and ideal-load-balance replays, with
/// speedups extrapolated to 16..256 nodes, and its Eq. 4 decomposition at
/// the largest node count.
struct ScalingTables {
  TextTable fits{{"workload", "model", "S(16)", "S(32)", "S(64)", "S(128)",
                  "S(256)", "r2"}};
  TextTable decomp{{"workload", "LB", "Ser", "Trf", "efficiency",
                    "ideal-net speedup", "ideal-LB speedup"}};
};

inline ScalingTables scaling_tables(
    const sweep::Grid& grid, const std::vector<cluster::RunResult>& results,
    const sweep::Grid& replays,
    const std::vector<trace::ScenarioRuns>& scenario_runs) {
  ScalingTables tables;
  const std::size_t sizes = grid.nodes.size();
  for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
    const std::string& name = grid.workloads[w];
    // Series 0 and 1 are the runs on grid NIC 0 and 1.
    const char* const series[] = {"1G model", "10G model", "ideal network",
                                  "ideal load balance"};
    for (std::size_t s = 0; s < 4; ++s) {
      std::vector<core::ScalingSample> samples;
      for (std::size_t i = 0; i < sizes; ++i) {
        const trace::ScenarioRuns& runs = scenario_runs[replays.index(w, i)];
        const double seconds = s < 2    ? results[grid.index(w, i, s)].seconds
                               : s == 2 ? runs.ideal_network.seconds()
                                        : runs.ideal_balance.seconds();
        samples.push_back(core::ScalingSample{grid.nodes[i], seconds});
      }
      const core::ScalingModel model = core::fit_scaling(samples);
      std::vector<std::string> row{name, series[s]};
      for (int n : {16, 32, 64, 128, 256}) {
        row.push_back(TextTable::num(model.predict_speedup(n), 1));
      }
      row.push_back(TextTable::num(model.r2, 3));
      tables.fits.add_row(std::move(row));
    }
    const trace::ScenarioRuns& runs =
        scenario_runs[replays.index(w, sizes - 1)];
    const core::EfficiencyDecomposition d = core::decompose(runs);
    tables.decomp.add_row(
        {name, TextTable::num(d.load_balance, 3),
         TextTable::num(d.serialization, 3), TextTable::num(d.transfer, 3),
         TextTable::num(d.efficiency, 3),
         TextTable::num(runs.measured.seconds() / runs.ideal_network.seconds(),
                        2),
         TextTable::num(runs.measured.seconds() / runs.ideal_balance.seconds(),
                        2)});
  }
  return tables;
}

/// The extended-roofline model instance for one TX1 node (Eq. 3 inputs).
inline core::ExtendedRoofline tx1_roofline(net::NicKind nic,
                                           bool double_precision = true) {
  return cluster::energy_roofline_model(systems::jetson_tx1(nic),
                                        double_precision)
      .roofline;
}

inline const char* nic_name(net::NicKind nic) {
  return nic == net::NicKind::kGigabit ? "1GbE" : "10GbE";
}

/// Writes one artifact through soc::write_text; a path it cannot write
/// exits 2 with `bench: cannot write <path>`.
inline void write_or_exit(const std::string& path, const std::string& text) {
  try {
    write_text(path, text);
  } catch (const UsageError& e) {
    usage_exit(e);
  }
}

/// Writes a bench's result table as a JSON artifact when the environment
/// variable SOC_BENCH_JSON_DIR names a directory; no-op otherwise, so the
/// default `make bench` behaviour (stdout tables) is unchanged.  The file
/// is `<dir>/<bench>[-<tag>].json`, schema "soccluster-bench-table/v1",
/// and byte-identical across replays (the table cells are already
/// deterministically rendered strings).
inline void write_artifact(const std::string& bench, const TextTable& table,
                           const std::string& tag = "") {
  const char* dir = std::getenv("SOC_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-bench-table/v1");
  w.field("bench", std::string_view(bench));
  w.field("tag", std::string_view(tag));
  w.newline();
  w.key("headers");
  w.begin_array();
  for (const std::string& h : table.headers()) w.value(std::string_view(h));
  w.end_array();
  w.newline();
  w.key("rows");
  w.begin_array();
  for (const auto& row : table.cells()) {
    w.newline();
    w.begin_array();
    for (const std::string& cell : row) w.value(std::string_view(cell));
    w.end_array();
  }
  w.end_array();
  w.end_object();
  write_or_exit(std::string(dir) + "/" + bench +
                    (tag.empty() ? "" : "-" + tag) + ".json",
                w.str() + '\n');
}

/// Writes the sweep-report document (`<dir>/<bench>-sweep.json`, schema
/// "soccluster-sweep-report/v1") when SOC_BENCH_JSON_DIR is set.  The
/// document excludes thread count and wall-clock by construction, so it
/// is byte-identical whatever --sweep-threads was.
inline void write_sweep_artifact(
    const std::string& bench, const std::vector<cluster::RunRequest>& requests,
    const std::vector<cluster::RunResult>& results,
    const sweep::SweepSummary& summary) {
  const char* dir = std::getenv("SOC_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  write_or_exit(std::string(dir) + "/" + bench + "-sweep.json",
                sweep::sweep_report_json(bench, requests, results, summary));
}

}  // namespace soc::bench
