// socbench — command-line driver for the soccluster simulator.
//
// Subcommands:
//   socbench list
//       Workloads and machine models available.
//   socbench run --workload jacobi --nodes 16 --nic 10g [--scale 1.0]
//                [--mem-model hd|zc|um] [--gpu-fraction 1.0] [--ranks N]
//                [--metrics] [--chrome-trace t.json] [--report-json r.json]
//                [--fault node-crash:node=0,t=5,down=60]
//                [--noise interval=0.01,duration=0.001]
//                [--checkpoint daly:size=4e9,bw=2e9,mtti=3600]
//       One metered run: runtime, throughput, energy, traffic, roofline.
//       --fault / --noise / --checkpoint wrap the workload's op stream in
//       scenario decorators (run, sweep, explain, and decompose all take
//       them); enabled scenarios are serialized into report JSON.
//       Observability artifacts on demand: --metrics prints the run's
//       metrics registry, --chrome-trace writes a Perfetto-loadable
//       trace, --report-json a canonical machine-readable run report.
//   socbench sweep --workload hpl --nodes 2,4,8,16 --nic both
//                  [--sweep-threads N] [--progress] [--report-json s.json]
//       Cluster-size sweep, one row per (size, NIC).  `--workload all`
//       sweeps every registered workload.  Runs shard across host
//       threads (--sweep-threads or SOC_SWEEP_THREADS; 0 = all cores) —
//       thread count never changes results, only wall-clock.
//       --report-json writes a soccluster-sweep-report/v1 document with
//       a per-run block and the sweep summary; --energy-roofline writes
//       the soccluster-energy-roofline/v1 artifact (achieved GFLOPS/W vs
//       the power-derived ceiling at each run's measured OI/NI).
//   socbench decompose --workload ft --nodes 16
//       The paper's LB/Ser/Trf efficiency decomposition (Eq. 4).
//   socbench explain --workload hpl --nodes 8 [--profile-json cp.json]
//                    [--folded cp.folded] [--energy] [--energy-json e.json]
//                    [--dvfs 0.6,0.8] [--cap-watts 10]
//       Single-pass critical-path profile: one instrumented run yields
//       the bottleneck attribution (which lane/phase/rank the end-to-end
//       time sits on), the LB/Ser/Trf factors, and what-if projections
//       (ideal network / ideal balance / uncontended lanes) without
//       re-running the engine.  --profile-json writes the deterministic
//       soccluster-critical-path/v1 artifact, --folded a
//       flamegraph-compatible folded-stacks file.  --energy prints the
//       zero-residual joule attribution (per phase / per rank / per
//       component), --energy-json the soccluster-energy-attribution/v1
//       artifact; --dvfs and --cap-watts re-time the recorded run under
//       DVFS states and whole-cluster power caps without re-running.
//   socbench frontier --workload jacobi --nodes 8,16
//                     [--gpu-fractions 0.5,0.75,1.0] [--dvfs 0.6,0.8,1.0]
//                     [--report-json f.json]
//       Perf-per-watt frontier: sweeps the CPU/GPU work split x DVFS
//       operating point x node count through the sweep runner and marks
//       each workload's Pareto-optimal points in (runtime, energy).
//       --report-json writes the soccluster-energy-frontier/v1 artifact.
//   socbench trace --workload tealeaf3d --nodes 8 --out run.soctrace
//       Record the generated per-rank programs to a trace file.
//   socbench replay --workload tealeaf3d --trace run.soctrace --nodes 8
//                   [--ideal-network]
//       Replay a recorded trace (DIMEMAS-style what-if supported).  A
//       trace does not record its workload, so --workload is required:
//       it picks the CPU profile the trace's compute ops are costed with,
//       and replaying a trace under the workload that recorded it
//       reproduces `socbench run` (runtime and event checksum).
//   socbench run --workload jacobi --nodes 16 --audit-determinism
//       Determinism audit: replay the workload --repeats times serially
//       and under parallel_for; all event checksums must be bit-identical.
//       `--workload all` audits every registered workload.
//
// A usage mistake (unknown flag, command or workload, malformed number,
// bad cluster shape) prints `socbench: <reason>` and exits 2; --help
// prints the usage and exits 0; any other failure exits 1.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/report.h"
#include "common/args.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/efficiency.h"
#include "core/extended_roofline.h"
#include "net/network.h"
#include "obs/chrome_trace.h"
#include "obs/observers.h"
#include "prof/critical_path.h"
#include "prof/energy.h"
#include "prof/profile.h"
#include "sim/memo_cost.h"
#include "sweep/frontier.h"
#include "sweep/grid.h"
#include "sweep/sweep.h"
#include "systems/machines.h"
#include "trace/export.h"
#include "trace/timeline.h"
#include "trace/replay.h"
#include "workloads/workload.h"

namespace {

using namespace soc;

net::NicKind parse_nic(const std::string& s) {
  if (s == "1g") return net::NicKind::kGigabit;
  if (s == "10g") return net::NicKind::kTenGigabit;
  throw UsageError("unknown NIC '" + s + "' (use 1g or 10g)");
}

sim::MemModel parse_mem_model(const std::string& s) {
  if (s == "hd") return sim::MemModel::kHostDevice;
  if (s == "zc") return sim::MemModel::kZeroCopy;
  if (s == "um") return sim::MemModel::kUnified;
  throw UsageError("unknown memory model '" + s + "' (use hd, zc, or um)");
}

/// Registered workload tags, comma-separated.
std::string workload_tags() {
  std::string tags;
  for (const std::string& name : workloads::list()) {
    if (!tags.empty()) tags += ", ";
    tags += name;
  }
  return tags;
}

/// Rejects a workload tag the registry does not know.
void check_workload(const std::string& name) {
  const auto& tags = workloads::list();
  if (std::find(tags.begin(), tags.end(), name) == tags.end()) {
    throw UsageError("unknown workload '" + name + "' (use one of " +
                     workload_tags() + ")");
  }
}

/// The --workload of commands that cover several workloads: "all", one
/// tag, or (with `csv`) a comma-separated list of tags.
std::vector<std::string> workload_list(const ArgParser& args, bool csv) {
  const std::string& arg = args.get("--workload");
  if (arg == "all") return workloads::list();
  std::vector<std::string> names =
      csv ? parse_string_list(arg) : std::vector<std::string>{arg};
  for (const std::string& name : names) check_workload(name);
  return names;
}

std::unique_ptr<workloads::Workload> workload_from(const ArgParser& args) {
  const std::string& name = args.get("--workload");
  check_workload(name);
  return workloads::make_workload(name);
}

int positive(int value, const std::string& flag) {
  if (value <= 0) {
    throw UsageError(flag + " must be positive, got " + std::to_string(value));
  }
  return value;
}

/// Cluster shape from --nodes and --ranks; without --ranks, the
/// workload's natural rank count.
struct Shape {
  int nodes = 0;
  int ranks = 0;
};

Shape shape_from(const ArgParser& args, const workloads::Workload& w) {
  Shape shape;
  shape.nodes = positive(args.get_int("--nodes"), "--nodes");
  if (!args.given("--ranks")) {
    shape.ranks = sweep::natural_ranks(w, shape.nodes);
    return shape;
  }
  shape.ranks = positive(args.get_int("--ranks"), "--ranks");
  if (shape.ranks % shape.nodes != 0) {
    throw UsageError("--ranks " + std::to_string(shape.ranks) +
                     " is not a multiple of --nodes " +
                     std::to_string(shape.nodes));
  }
  return shape;
}

/// The --nodes CSV list of sweep-style commands, which always run each
/// workload at its natural rank count.
std::vector<int> node_list(const ArgParser& args) {
  if (args.given("--ranks")) {
    throw UsageError("--ranks is not supported by " +
                     args.positional().front() +
                     ", which runs each workload at its natural rank count");
  }
  std::vector<int> nodes = parse_int_list(args.get("--nodes"));
  for (const int n : nodes) positive(n, "--nodes");
  return nodes;
}

void print_result(const cluster::RunResult& r, const systems::NodeConfig& node,
                  int nodes, bool dp) {
  std::printf("runtime        : %.3f s\n", r.seconds);
  std::printf("throughput     : %.2f GFLOP/s\n", r.gflops);
  std::printf("energy         : %.1f J (avg %.1f W, peak %.1f W)\n",
              r.joules, r.average_watts, r.energy.peak_watts);
  std::printf("efficiency     : %.1f MFLOPS/W\n", r.mflops_per_watt);
  const power::EnergyBreakdown& e = r.energy.breakdown;
  std::printf("energy split   : idle %.0f%%, cpu %.0f%%, gpu %.0f%%, "
              "nic %.0f%%, dram %.0f%%\n", 100.0 * e.idle / r.joules,
              100.0 * e.cpu / r.joules, 100.0 * e.gpu / r.joules,
              100.0 * e.nic / r.joules, 100.0 * e.dram / r.joules);
  std::printf("network traffic: %.3f GB (%.4f GB/s)\n",
              static_cast<double>(r.stats.total_net_bytes) / 1e9,
              r.stats.net_bytes_per_second() / 1e9);
  std::printf("DRAM traffic   : %.1f GB (%.2f GB/s)\n",
              static_cast<double>(r.stats.total_dram_bytes) / 1e9,
              r.stats.dram_bytes_per_second() / 1e9);
  if (node.has_gpu && r.stats.total_gpu_flops > 0.0) {
    core::ExtendedRoofline model;
    model.peak_flops =
        dp ? node.gpu.peak_dp_flops() : node.gpu.peak_sp_flops();
    model.memory_bandwidth = node.dram.gpu_bandwidth;
    model.network_bandwidth = node.nic.effective_bandwidth;
    const auto m = core::measure_roofline(model, r.stats, nodes, "run");
    std::printf("roofline       : OI=%.2f NI=%s -> %.2f of %.2f GFLOP/s/node "
                "(%s-limited)\n",
                m.operational_intensity,
                m.network_intensity >= 1e9
                    ? "local"
                    : TextTable::num(m.network_intensity, 1).c_str(),
                m.achieved_flops / 1e9, m.attainable_flops / 1e9,
                core::limit_name(m.limiting_intensity));
  }
}

int cmd_list() {
  std::printf("workloads:\n");
  for (const std::string& name : workloads::list()) {
    const auto w = workloads::make_workload(name);
    std::printf("  %-11s %s\n", name.c_str(),
                w->gpu_accelerated() ? "(GPU-accelerated)" : "(CPU, NPB)");
  }
  std::printf("\nmachines:\n");
  std::printf("  jetson-tx1   4x Cortex-A57 + 2-SM Maxwell, 4 GB LPDDR4, "
              "1GbE/10GbE\n");
  std::printf("  thunderx     2x48 ARMv8 cores, 2x16 MB L2 (table VI "
              "comparison)\n");
  std::printf("  xeon-gtx980  8-core Xeon + GTX 980 (fig 9 comparison)\n");
  return 0;
}

cluster::RunOptions options_from(const ArgParser& args) {
  cluster::RunOptions options;
  options.size_scale = args.get_double("--scale");
  options.mem_model = parse_mem_model(args.get("--mem-model"));
  options.gpu_work_fraction = args.get_double("--gpu-fraction");
  return options;
}

/// Scenario decorators from the --fault / --noise / --checkpoint flags;
/// all-empty flags yield a disabled config (scenario-free run).
workloads::ScenarioConfig scenario_from(const ArgParser& args) {
  return workloads::parse_scenario(args.get("--fault"), args.get("--noise"),
                                   args.get("--checkpoint"));
}

// Audits one workload: the baseline run, --repeats serial replays, and
// --repeats parallel_for replays must all commit the identical event
// stream (RunStats::event_checksum).  Returns true when they do.
bool audit_workload(const std::string& name, const ArgParser& args) {
  const auto workload = workloads::make_workload(name);
  const auto [nodes, ranks] = shape_from(args, *workload);
  const auto node = systems::jetson_tx1(parse_nic(args.get("--nic")));
  const int repeats = args.get_int("--repeats");
  if (repeats < 2) throw UsageError("--repeats must be at least 2");

  // Scenario decorators participate in the audit: fault/noise/checkpoint
  // streams must replay bit-identically like any workload.
  cluster::RunRequest request;
  request.workload = name;
  request.config = cluster::ClusterConfig{node, nodes, ranks};
  request.options = options_from(args);
  request.scenario = scenario_from(args);

  const auto baseline = cluster::run(request);
  bool serial_ok = true;
  for (int i = 1; i < repeats; ++i) {
    const auto r = cluster::run(request);
    serial_ok = serial_ok && r.stats.event_checksum ==
                                 baseline.stats.event_checksum;
  }

  std::vector<std::uint64_t> checksums(static_cast<std::size_t>(repeats), 0);
  parallel_for(checksums.size(), [&](std::size_t i) {
    // Each replica resolves its own workload instance from the registry
    // tag: the audit must hold with zero shared mutable state, exactly
    // like the bench sweeps.
    checksums[i] = cluster::run(request).stats.event_checksum;
  });
  bool parallel_ok = true;
  for (std::uint64_t c : checksums) {
    parallel_ok = parallel_ok && c == baseline.stats.event_checksum;
  }

  std::printf("%-11s checksum=%016llx events=%llu serial[%dx]=%s "
              "parallel[%dx]=%s\n",
              name.c_str(),
              static_cast<unsigned long long>(baseline.stats.event_checksum),
              static_cast<unsigned long long>(baseline.stats.events_committed),
              repeats, serial_ok ? "ok" : "MISMATCH", repeats,
              parallel_ok ? "ok" : "MISMATCH");
  return serial_ok && parallel_ok;
}

int cmd_audit(const ArgParser& args) {
  const std::vector<std::string> names = workload_list(args, false);
  bool ok = true;
  for (const std::string& name : names) ok = audit_workload(name, args) && ok;
  if (!ok) {
    std::fprintf(stderr, "socbench: determinism audit FAILED — replays of "
                         "the same configuration diverged\n");
    return 1;
  }
  std::printf("determinism audit passed (%zu workload%s)\n", names.size(),
              names.size() == 1 ? "" : "s");
  return 0;
}

int cmd_run(const ArgParser& args) {
  if (args.get_bool("--audit-determinism")) return cmd_audit(args);
  const auto workload = workload_from(args);
  const auto [nodes, ranks] = shape_from(args, *workload);
  const auto node = systems::jetson_tx1(parse_nic(args.get("--nic")));

  // Observability: attach only what the flags ask for, so the default
  // run keeps the engine's no-observer fast path.
  const bool want_metrics =
      args.get_bool("--metrics") || args.given("--report-json");
  obs::MetricsObserver metrics;
  obs::ChromeTraceRecorder chrome;
  obs::ObserverList observers;
  if (want_metrics) observers.add(&metrics);
  if (args.given("--chrome-trace")) observers.add(&chrome);
  auto options = options_from(args);
  if (!observers.empty()) options.observer = &observers;

  cluster::RunRequest request;
  request.workload = workload->name();
  request.workload_ref = workload.get();
  request.config = cluster::ClusterConfig{node, nodes, ranks};
  request.options = options;
  request.scenario = scenario_from(args);
  const auto result = cluster::run(request);
  std::printf("%s on %d x %s (%s, %d ranks)\n\n", workload->name().c_str(),
              nodes, node.name.c_str(), node.nic.name.c_str(), ranks);
  const bool dp = workload->name() != "alexnet" &&
                  workload->name() != "googlenet";
  print_result(result, node, nodes, dp);
  if (args.get_bool("--timeline")) {
    trace::TimelineOptions t;
    t.cores_per_node = node.cpu_cores;
    std::printf("\n%s", trace::render_timeline(result.stats, t).c_str());
  }
  if (args.get_bool("--metrics")) {
    std::printf("\nmetrics\n-------\n%s",
                metrics.registry().table().c_str());
  }
  if (args.given("--chrome-trace")) {
    chrome.write(args.get("--chrome-trace"));
    std::printf("\nwrote %zu spans to %s\n", chrome.span_count(),
                args.get("--chrome-trace").c_str());
  }
  if (args.given("--report-json")) {
    cluster::write_report(args.get("--report-json"), request.config, options,
                          workload->name(), result, &metrics.registry(),
                          &request.scenario);
    std::printf("wrote run report to %s\n",
                args.get("--report-json").c_str());
  }
  return 0;
}

/// Sweep fan-out: the --sweep-threads flag wins over SOC_SWEEP_THREADS;
/// 0 (the default) means all host cores.
unsigned sweep_threads(const ArgParser& args) {
  if (args.given("--sweep-threads")) {
    const int v = args.get_int("--sweep-threads");
    if (v < 0) throw UsageError("--sweep-threads must be >= 0");
    return static_cast<unsigned>(v);
  }
  if (const char* env = std::getenv("SOC_SWEEP_THREADS");
      env != nullptr && *env != '\0') {
    const int v = std::atoi(env);
    SOC_CHECK(v >= 0, "SOC_SWEEP_THREADS must be >= 0");
    return static_cast<unsigned>(v);
  }
  return 0;
}

int cmd_sweep(const ArgParser& args) {
  sweep::Grid grid;
  grid.workloads = workload_list(args, false);
  grid.nodes = node_list(args);
  const std::string nic_arg = args.get("--nic");
  if (nic_arg == "both") {
    grid.nics = {net::NicKind::kGigabit, net::NicKind::kTenGigabit};
  } else {
    grid.nics = {parse_nic(nic_arg)};
  }
  grid.base = options_from(args);
  grid.scenario = scenario_from(args);
  const auto requests = grid.requests();

  sweep::SweepOptions sweep_options;
  sweep_options.label = "socbench sweep";
  sweep_options.threads = sweep_threads(args);
  sweep_options.progress = args.get_bool("--progress");
  sweep::SweepRunner runner(sweep_options);
  const auto results = runner.run(requests);

  for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
    TextTable table({"nodes", "NIC", "runtime (s)", "GFLOP/s", "MFLOPS/W",
                     "net GB"});
    for (std::size_t i = 0; i < grid.nodes.size(); ++i) {
      for (std::size_t n = 0; n < grid.nics.size(); ++n) {
        const auto& r = results[grid.index(w, i, n)];
        table.add_row({std::to_string(grid.nodes[i]),
                       systems::jetson_tx1(grid.nics[n]).nic.name,
                       TextTable::num(r.seconds, 2),
                       TextTable::num(r.gflops, 1),
                       TextTable::num(r.mflops_per_watt, 0),
                       TextTable::num(
                           static_cast<double>(r.stats.total_net_bytes) / 1e9,
                           2)});
      }
    }
    std::printf("%s%s\n%s", w > 0 ? "\n" : "", grid.workloads[w].c_str(),
                table.str().c_str());
  }

  if (args.given("--report-json")) {
    const std::string path = args.get("--report-json");
    std::ofstream f(path, std::ios::binary);
    SOC_CHECK(f.good(), "cannot open sweep report for writing: " + path);
    const std::string doc = sweep::sweep_report_json("socbench sweep", requests,
                                                     results, runner.summary());
    f.write(doc.data(), static_cast<std::streamsize>(doc.size()));
    SOC_CHECK(f.good(), "failed writing sweep report: " + path);
    std::printf("\nwrote sweep report to %s\n", path.c_str());
  }

  if (args.given("--energy-roofline")) {
    // Place every run on the GFLOPS/W roofline: achieved efficiency vs
    // the power-derived ceiling at its measured (OI, NI).
    std::vector<core::EnergyRooflineMeasurement> measurements;
    measurements.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const cluster::RunRequest& req = requests[i];
      const bool dp =
          req.workload != "alexnet" && req.workload != "googlenet";
      const core::EnergyRoofline model =
          cluster::energy_roofline_model(req.config.node, dp);
      measurements.push_back(core::measure_energy_roofline(
          model, results[i].stats, results[i].energy, req.config.nodes,
          req.workload));
    }
    const std::string path = args.get("--energy-roofline");
    std::ofstream f(path, std::ios::binary);
    SOC_CHECK(f.good(), "cannot open energy roofline for writing: " + path);
    const std::string doc = cluster::energy_roofline_json(
        "socbench sweep", requests, results, measurements);
    f.write(doc.data(), static_cast<std::streamsize>(doc.size()));
    SOC_CHECK(f.good(), "failed writing energy roofline: " + path);
    std::printf("\nwrote energy roofline to %s\n", path.c_str());
  }
  return 0;
}

int cmd_frontier(const ArgParser& args) {
  sweep::FrontierGrid grid;
  grid.workloads = workload_list(args, true);
  grid.nodes = node_list(args);
  grid.gpu_fractions = parse_double_list(args.get("--gpu-fractions"));
  grid.dvfs = parse_double_list(args.get("--dvfs"));
  grid.nic = parse_nic(args.get("--nic"));
  grid.base = options_from(args);
  const auto requests = grid.requests();

  sweep::SweepOptions sweep_options;
  sweep_options.label = "socbench frontier";
  sweep_options.threads = sweep_threads(args);
  sweep_options.progress = args.get_bool("--progress");
  sweep::SweepRunner runner(sweep_options);
  const auto results = runner.run(requests);
  const auto points = sweep::perf_per_watt_frontier(grid, results);

  TextTable table({"workload", "nodes", "gpu frac", "dvfs", "runtime (s)",
                   "energy (kJ)", "MFLOPS/W", "pareto"});
  std::size_t pareto = 0;
  for (const sweep::FrontierPoint& p : points) {
    if (p.pareto) ++pareto;
    table.add_row({p.workload, std::to_string(p.nodes),
                   TextTable::num(p.gpu_fraction, 2),
                   TextTable::num(p.dvfs, 2), TextTable::num(p.seconds, 2),
                   TextTable::num(p.joules / 1e3, 2),
                   TextTable::num(p.mflops_per_watt, 0),
                   p.pareto ? "*" : ""});
  }
  std::printf("perf-per-watt frontier (%zu points, %zu Pareto-optimal)\n\n%s",
              points.size(), pareto, table.str().c_str());

  if (args.given("--report-json")) {
    const std::string path = args.get("--report-json");
    std::ofstream f(path, std::ios::binary);
    SOC_CHECK(f.good(), "cannot open frontier report for writing: " + path);
    const std::string doc =
        sweep::frontier_json("socbench frontier", grid, points);
    f.write(doc.data(), static_cast<std::streamsize>(doc.size()));
    SOC_CHECK(f.good(), "failed writing frontier report: " + path);
    std::printf("\nwrote frontier report to %s\n", path.c_str());
  }
  return 0;
}

int cmd_decompose(const ArgParser& args) {
  const auto workload = workload_from(args);
  const auto [nodes, ranks] = shape_from(args, *workload);
  const auto node = systems::jetson_tx1(parse_nic(args.get("--nic")));
  cluster::RunRequest request;
  request.workload = workload->name();
  request.workload_ref = workload.get();
  request.config = cluster::ClusterConfig{node, nodes, ranks};
  request.options = options_from(args);
  request.scenario = scenario_from(args);
  const auto runs = cluster::replay_scenarios(request);
  const auto d = core::decompose(runs);
  std::printf("%s on %d nodes (%s, %d ranks): Eq. 4 decomposition\n\n",
              workload->name().c_str(), nodes, node.nic.name.c_str(), ranks);
  std::printf("  measured            : %.3f s\n", d.measured_seconds);
  std::printf("  ideal network       : %.3f s (%.2fx)\n",
              d.ideal_network_seconds,
              d.measured_seconds / d.ideal_network_seconds);
  std::printf("  ideal load balance  : %.3f s (%.2fx)\n",
              d.ideal_balance_seconds,
              d.measured_seconds / d.ideal_balance_seconds);
  std::printf("  LB = %.3f, Ser = %.3f, Trf = %.3f  ->  eta = %.3f\n",
              d.load_balance, d.serialization, d.transfer, d.efficiency);
  return 0;
}

int cmd_explain(const ArgParser& args) {
  const auto workload = workload_from(args);
  const auto [nodes, ranks] = shape_from(args, *workload);
  const auto node = systems::jetson_tx1(parse_nic(args.get("--nic")));

  cluster::RunRequest request;
  request.workload = workload->name();
  request.workload_ref = workload.get();
  request.config = cluster::ClusterConfig{node, nodes, ranks};
  request.options = options_from(args);
  request.scenario = scenario_from(args);
  prof::Profile profile;
  request.profile = &profile;
  if (args.given("--profile-json")) {
    request.profile_json_path = args.get("--profile-json");
  }
  if (args.given("--folded")) {
    request.profile_folded_path = args.get("--folded");
  }
  // DVFS / power-cap what-ifs re-time the recorded trace, so keep it.
  prof::RunTrace run_trace;
  const bool want_retime = args.given("--dvfs") || args.given("--cap-watts");
  std::vector<double> caps;
  if (args.given("--cap-watts")) {
    caps = parse_double_list(args.get("--cap-watts"));
    for (const double cap : caps) {
      if (cap <= 0.0) throw UsageError("--cap-watts must be positive");
    }
  }
  if (want_retime) request.run_trace = &run_trace;
  const auto result = cluster::run(request);

  std::printf("%s on %d x %s (%s, %d ranks): critical path\n\n",
              workload->name().c_str(), nodes, node.name.c_str(),
              node.nic.name.c_str(), ranks);
  std::printf("runtime        : %.3f s (%llu events, checksum %s)\n",
              result.seconds,
              static_cast<unsigned long long>(result.stats.events_committed),
              cluster::checksum_hex(result.stats.event_checksum).c_str());

  // Where the end-to-end time went: the walked path tiles [0, makespan]
  // exactly, so the shares sum to 100%.
  const prof::CriticalPath& path = profile.attribution.path;
  TextTable table({"category", "lane", "time (s)", "share", "steps"});
  for (std::size_t c = 0; c < prof::kCategoryCount; ++c) {
    const auto category = static_cast<prof::Category>(c);
    const SimTime ns = path.by_category[c];
    if (ns == 0) continue;
    std::size_t steps = 0;
    for (const prof::PathStep& s : path.steps) {
      if (s.category == category) ++steps;
    }
    table.add_row({prof::category_name(category),
                   prof::category_lane(category),
                   TextTable::num(to_seconds(ns), 3),
                   TextTable::num(100.0 * static_cast<double>(ns) /
                                      static_cast<double>(path.total), 1) + "%",
                   std::to_string(steps)});
  }
  std::printf("\n%s", table.str().c_str());

  std::printf("\nefficiency (Eq. 4, single pass): LB = %.3f, Ser = %.3f, "
              "Trf = %.3f  ->  eta = %.3f\n",
              profile.factors.load_balance, profile.factors.serialization,
              profile.factors.transfer, profile.factors.efficiency);

  const auto project = [&](const char* label, SimTime ns) {
    std::printf("  %-22s: %.3f s (%.2fx)\n", label, to_seconds(ns),
                ns > 0 ? static_cast<double>(profile.makespan) /
                             static_cast<double>(ns)
                       : 0.0);
  };
  std::printf("what-if projections (no re-run; measured re-evaluation %s):\n",
              profile.evaluator_exact ? "exact" : "INEXACT");
  project("ideal network", profile.ideal_network);
  project("ideal load balance", profile.ideal_balance);
  project("uncontended lanes", profile.uncontended);

  if (args.get_bool("--energy") || args.given("--energy-json")) {
    SOC_CHECK(profile.has_energy, "profile carries no energy attribution");
    const prof::EnergyAttribution& e = profile.energy;
    std::printf("\nenergy attribution (%.1f J; zero-residual partition of "
                "%lld uJ)\n",
                e.joules, static_cast<long long>(e.total_uj));
    TextTable et({"phase", "end (s)", "J", "idle", "cpu", "gpu", "nic",
                  "dram"});
    for (const prof::PhaseEnergy& p : e.phases) {
      et.add_row({std::to_string(p.phase), TextTable::num(to_seconds(p.end), 3),
                  TextTable::num(static_cast<double>(p.uj) / 1e6, 2),
                  TextTable::num(static_cast<double>(p.idle_uj) / 1e6, 2),
                  TextTable::num(static_cast<double>(p.cpu_uj) / 1e6, 2),
                  TextTable::num(static_cast<double>(p.gpu_uj) / 1e6, 2),
                  TextTable::num(static_cast<double>(p.nic_uj) / 1e6, 2),
                  TextTable::num(static_cast<double>(p.dram_uj) / 1e6, 2)});
    }
    std::printf("\n%s", et.str().c_str());
    std::printf("\nper-rank shares (largest-remainder, sums to total):\n ");
    for (std::size_t r = 0; r < e.rank_uj.size(); ++r) {
      std::printf(" r%zu=%.1fJ", r, static_cast<double>(e.rank_uj[r]) / 1e6);
    }
    std::printf("\n");
    if (args.given("--energy-json")) {
      prof::write_text(args.get("--energy-json"), prof::energy_json(e));
      std::printf("wrote energy attribution to %s\n",
                  args.get("--energy-json").c_str());
    }
  }

  if (want_retime) {
    std::printf("\nenergy what-ifs (re-timed from the trace, no re-run):\n");
    const prof::Retimed base =
        prof::retime(run_trace, prof::WhatIf{}, node.power, node.cpu_cores);
    std::printf("  %-22s: %.3f s, %.1f J (reproduces measured run)\n",
                "baseline", base.seconds, base.joules);
    if (args.given("--dvfs")) {
      for (const double f : parse_double_list(args.get("--dvfs"))) {
        prof::WhatIf s;
        s.dvfs_compute = f;
        // Memory clock follows the same weakly-scaling law the DVFS
        // bench applies to bandwidth (systems::with_dvfs).
        s.dvfs_dram = 0.4 + 0.6 * f;
        const prof::Retimed r =
            prof::retime(run_trace, s, node.power, node.cpu_cores);
        std::printf("  dvfs %.2f              : %.3f s (%.2fx), %.1f J "
                    "(%.2fx), avg %.1f W\n",
                    f, r.seconds, r.seconds / base.seconds, r.joules,
                    r.joules / base.joules, r.average_watts);
      }
    }
    if (args.given("--cap-watts")) {
      for (const double cap : caps) {
        prof::WhatIf s;
        s.power_cap_w = cap;
        const prof::Retimed r =
            prof::retime(run_trace, s, node.power, node.cpu_cores);
        std::printf("  cap %-6.1f W          : %.3f s (+%.3f s), %.1f J, "
                    "%zu bins clamped\n",
                    cap, r.seconds, r.seconds - base.seconds, r.joules,
                    r.capped_bins);
      }
    }
  }

  if (!request.profile_json_path.empty()) {
    std::printf("wrote critical-path artifact to %s\n",
                request.profile_json_path.c_str());
  }
  if (!request.profile_folded_path.empty()) {
    std::printf("wrote folded stacks to %s\n",
                request.profile_folded_path.c_str());
  }
  return 0;
}

int cmd_trace(const ArgParser& args) {
  const auto workload = workload_from(args);
  const Shape shape = shape_from(args, *workload);
  workloads::BuildContext ctx;
  ctx.nodes = shape.nodes;
  ctx.ranks = shape.ranks;
  ctx.size_scale = args.get_double("--scale");
  ctx.mem_model = parse_mem_model(args.get("--mem-model"));
  ctx.gpu_work_fraction = args.get_double("--gpu-fraction");
  const auto programs = workload->build(ctx);
  trace::save_trace(args.get("--out"), programs);
  std::size_t ops = 0;
  for (const auto& p : programs) ops += p.size();
  std::printf("wrote %zu ranks / %zu ops to %s\n", programs.size(), ops,
              args.get("--out").c_str());
  return 0;
}

int cmd_replay(const ArgParser& args) {
  if (!args.given("--workload")) {
    throw UsageError("replay needs --workload: a trace does not record the "
                     "workload whose CPU profile costs its compute ops");
  }
  const auto workload = workload_from(args);
  const auto programs = trace::load_trace(args.get("--trace"));
  const int nodes = positive(args.get_int("--nodes"), "--nodes");
  const int ranks = static_cast<int>(programs.size());
  if (ranks % nodes != 0) {
    throw UsageError("the trace's " + std::to_string(ranks) +
                     " ranks do not divide over --nodes " +
                     std::to_string(nodes));
  }
  // The cost model and engine config cluster::run would build for this
  // shape, so a replay reproduces the recorded run.
  const cluster::ClusterConfig config{
      systems::jetson_tx1(parse_nic(args.get("--nic"))), nodes, ranks};
  cluster::validate(config);
  const cluster::ClusterCostModel cost(config.node, nodes, ranks,
                                       workload->cpu_profile());
  const sim::MemoCostModel memo(cost);
  sim::EngineConfig engine_config;
  engine_config.bisection_bandwidth =
      config.node.switch_config.bisection_bandwidth;
  sim::Scenario scenario;
  scenario.ideal_network = args.get_bool("--ideal-network");
  sim::Engine engine(sim::Placement::block(ranks, nodes), memo, engine_config,
                     scenario);
  const sim::RunStats stats = engine.run(programs);
  std::printf("replayed %d ranks on %d nodes%s: %.3f s, %.2f GFLOP/s, "
              "%.3f GB over the network (%llu events, checksum %s)\n",
              ranks, nodes, scenario.ideal_network ? " (ideal network)" : "",
              stats.seconds(), stats.flops_per_second() / 1e9,
              static_cast<double>(stats.total_net_bytes) / 1e9,
              static_cast<unsigned long long>(stats.events_committed),
              cluster::checksum_hex(stats.event_checksum).c_str());
  return 0;
}

void print_usage(const ArgParser& args) {
  // The workload line derives from the registry, so usage can never
  // drift from what make_workload accepts.
  std::printf(
      "usage: socbench <command> [flags]\n\n"
      "commands:\n"
      "  list       workloads and machine models available\n"
      "  run        one metered run (add --metrics, --chrome-trace,\n"
      "             --report-json for observability artifacts;\n"
      "             --audit-determinism for a replay audit)\n"
      "  sweep      cluster-size sweep, one row per (size, NIC); shards\n"
      "             across host threads (--sweep-threads);\n"
      "             --energy-roofline writes the GFLOPS/W artifact\n"
      "  frontier   perf-per-watt Pareto frontier over gpu-fraction x DVFS\n"
      "             x nodes (--gpu-fractions, --dvfs, --report-json)\n"
      "  decompose  LB/Ser/Trf efficiency decomposition (paper Eq. 4)\n"
      "  explain    single-pass critical-path attribution + LB/Ser/Trf +\n"
      "             what-if projections (--profile-json, --folded);\n"
      "             --energy for the joule attribution, --dvfs/--cap-watts\n"
      "             for energy what-ifs re-timed from the trace\n"
      "  trace      record generated per-rank programs to a .soctrace file\n"
      "  replay     replay a recorded trace, costed as --workload (what-if\n"
      "             scenarios supported)\n"
      "\nscenarios (run/sweep/explain/decompose): --fault injects\n"
      "deterministic node crashes, link flaps, and stragglers; --noise adds\n"
      "seeded per-rank OS jitter; --checkpoint daly:... inserts\n"
      "checkpoint/restart stalls at Daly's optimal interval.  All three\n"
      "compose, stay bit-deterministic, and are attributed with zero\n"
      "residual by 'explain' (category `injected`).\n"
      "\nworkloads: %s\n"
      "\nflags:\n%s", workload_tags().c_str(), args.usage().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("--workload", "workload tag (see 'socbench list')", "jacobi");
  args.add_flag("--nodes", "cluster size, or CSV list for sweep", "8");
  args.add_flag("--ranks", "override the natural MPI rank count");
  args.add_flag("--nic", "1g, 10g, or both (sweep only)", "10g");
  args.add_flag("--scale", "problem-size multiplier", "1.0");
  args.add_flag("--mem-model", "CUDA memory model: hd, zc, um", "hd");
  args.add_flag("--gpu-fraction", "GPU share of offloadable work", "1.0");
  args.add_flag("--fault",
                "';'-separated fault specs: node-crash:node=N,t=S,down=S | "
                "link-flap:node=N,t0=S,t1=S | straggler:rank=R,slowdown=F");
  args.add_flag("--noise",
                "OS noise: interval=S,duration=S[,seed=N][,jitter=F]");
  args.add_flag("--checkpoint",
                "checkpoint/restart: daly:size=B,bw=B/s,mtti=S[,runtime=S]");
  args.add_flag("--out", "output trace path (trace)", "run.soctrace");
  args.add_flag("--trace", "input trace path (replay)", "run.soctrace");
  args.add_bool("--ideal-network", "replay with zero-cost network");
  args.add_bool("--timeline", "render per-node utilization strips (run)");
  args.add_bool("--audit-determinism",
                "run: verify replays are bit-identical instead of reporting");
  args.add_flag("--repeats", "replays per audit mode (audit-determinism)",
                "4");
  args.add_flag("--sweep-threads",
                "sweep: host threads to shard runs across (0 = all cores; "
                "overrides SOC_SWEEP_THREADS)");
  args.add_bool("--progress", "sweep: repaint a stderr progress/ETA line");
  args.add_bool("--metrics", "run: print the metrics registry");
  args.add_flag("--chrome-trace",
                "run: write a Chrome trace-event JSON (Perfetto) here");
  args.add_flag("--report-json", "run: write a canonical run report here");
  args.add_flag("--profile-json",
                "explain: write the soccluster-critical-path/v1 artifact here");
  args.add_flag("--folded",
                "explain: write flamegraph-compatible folded stacks here");
  args.add_bool("--energy",
                "explain: print the zero-residual joule attribution");
  args.add_flag("--energy-json",
                "explain: write the soccluster-energy-attribution/v1 "
                "artifact here");
  args.add_flag("--dvfs",
                "explain/frontier: CSV of relative frequencies to re-time "
                "under", "0.6,0.8,1.0");
  args.add_flag("--cap-watts",
                "explain: CSV of whole-cluster power caps to re-time under");
  args.add_flag("--gpu-fractions",
                "frontier: CSV of GPU work fractions to sweep",
                "0.5,0.75,1.0");
  args.add_flag("--energy-roofline",
                "sweep: write the soccluster-energy-roofline/v1 artifact "
                "here");

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(args);
      return 0;
    }
  }
  try {
    args.parse(argc, argv);
    if (args.positional().empty()) {
      print_usage(args);
      return 2;
    }
    const std::string& command = args.positional().front();
    if (command == "list") return cmd_list();
    if (command == "run") return cmd_run(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "frontier") return cmd_frontier(args);
    if (command == "decompose") return cmd_decompose(args);
    if (command == "explain") return cmd_explain(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "replay") return cmd_replay(args);
    throw UsageError("unknown command '" + command + "' (see socbench --help)");
  } catch (const UsageError& e) {
    std::fprintf(stderr, "socbench: %s\n", e.what());
    return 2;
  } catch (const soc::Error& e) {
    std::fprintf(stderr, "socbench: %s\n", e.what());
    return 1;
  }
}
