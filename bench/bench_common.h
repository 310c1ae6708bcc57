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
#include "core/extended_roofline.h"
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
