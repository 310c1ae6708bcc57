// socbench — command-line driver for the soccluster simulator.
//
// `socbench --help` lists the commands, and `socbench <command> --help`
// the flags that command reads.  Both come from kCommands at the end of
// this file: each command declares exactly the flags its handler reads,
// so ArgParser refuses any other flag before anything runs.
//
// A usage mistake (no command, an unknown command, flag or workload, a
// flag the command does not read or a stray argument, malformed number,
// bad cluster shape, an output path it cannot write) prints `socbench:
// <reason>` on stderr and exits 2; --help prints the usage and exits 0;
// any other failure exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/report.h"
#include "common/args.h"
#include "common/error.h"
#include "common/io.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/efficiency.h"
#include "core/extended_roofline.h"
#include "net/network.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/observers.h"
#include "power/power_model.h"
#include "prof/critical_path.h"
#include "prof/energy.h"
#include "prof/profile.h"
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

bool positive_finite(double v) { return v > 0.0 && std::isfinite(v); }

/// The range of a GPU work fraction: 0 puts all work on the CPU.
bool unit_interval(double v) { return v >= 0.0 && v <= 1.0; }

/// A CSV flag of numbers that `valid` each accepts, checked before any run.
std::vector<double> checked_list(const ArgParser& args, const std::string& flag,
                                 bool (*valid)(double),
                                 const std::string& rule) {
  std::vector<double> values = parse_double_list(args.get(flag));
  for (const double v : values) {
    if (!valid(v)) throw UsageError(flag + " values must be " + rule);
  }
  return values;
}

// Flag groups several commands declare, each beside the function that
// reads it.

const char* const kWorkloadHelp = "workload tag (see 'socbench list')";

/// --workload, --nodes and --ranks: the shape of one cluster.
void add_shape(ArgParser& args, const char* workload_help) {
  args.add_flag("--workload", workload_help, "jacobi");
  args.add_flag("--nodes", "cluster size", "8");
  args.add_flag("--ranks", "override the natural MPI rank count");
}

/// The nodes and ranks of that shape; without --ranks, the workload's
/// natural rank count.
cluster::ClusterConfig shape_from(const ArgParser& args,
                                  const workloads::Workload& w) {
  cluster::ClusterConfig shape;
  shape.nodes = positive(args.get_int("--nodes"), "--nodes");
  shape.ranks = args.given("--ranks")
                    ? positive(args.get_int("--ranks"), "--ranks")
                    : sweep::natural_ranks(w, shape.nodes);
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
  std::vector<int> nodes = parse_int_list(args.get("--nodes"));
  for (const int n : nodes) positive(n, "--nodes");
  return nodes;
}

void add_nic(ArgParser& args) { args.add_flag("--nic", "1g or 10g", "10g"); }

/// --scale, --mem-model and (unless `gpu_fraction` is false: frontier
/// sweeps its own fraction axis) --gpu-fraction.
void add_options(ArgParser& args, bool gpu_fraction = true) {
  args.add_flag("--scale", "problem-size multiplier", "1.0");
  args.add_flag("--mem-model", "CUDA memory model: hd, zc, um", "hd");
  if (gpu_fraction) {
    args.add_flag("--gpu-fraction", "GPU share of offloadable work, 0 to 1",
                  "1.0");
  }
}

cluster::RunOptions options_from(const ArgParser& args,
                                 bool gpu_fraction = true) {
  cluster::RunOptions options;
  options.size_scale = args.get_double("--scale");
  options.mem_model = parse_mem_model(args.get("--mem-model"));
  if (gpu_fraction) {
    options.gpu_work_fraction = args.get_double("--gpu-fraction");
    if (!unit_interval(options.gpu_work_fraction)) {
      throw UsageError("--gpu-fraction must be within [0, 1]");
    }
  }
  return options;
}

/// --fault, --noise and --checkpoint: the scenario decorators wrapped
/// around each run's op stream.
void add_scenario(ArgParser& args) {
  args.add_flag("--fault",
                "';'-separated fault specs: node-crash:node=N,t=S,down=S | "
                "link-flap:node=N,t0=S,t1=S | straggler:rank=R,slowdown=F");
  args.add_flag("--noise",
                "OS noise: interval=S,duration=S[,seed=N][,jitter=F]");
  args.add_flag("--checkpoint",
                "checkpoint/restart: daly:size=B,bw=B/s,mtti=S[,runtime=S]");
}

/// All-empty flags yield a disabled config (scenario-free run).
workloads::ScenarioConfig scenario_from(const ArgParser& args) {
  return workloads::parse_scenario(args.get("--fault"), args.get("--noise"),
                                   args.get("--checkpoint"));
}

/// The ten flags of one configured run: its shape, NIC, run options and
/// scenario.
void add_request(ArgParser& args, const char* workload_help = kWorkloadHelp) {
  add_shape(args, workload_help);
  add_nic(args);
  add_options(args);
  add_scenario(args);
}

/// The TX1-cluster run of workload `name` that add_request's flags
/// describe.
cluster::RunRequest request_from(const ArgParser& args,
                                 const std::string& name) {
  check_workload(name);
  cluster::RunRequest request;
  request.workload = name;
  request.config = shape_from(args, *workloads::make_workload(name));
  request.config.node = systems::jetson_tx1(parse_nic(args.get("--nic")));
  request.options = options_from(args);
  request.scenario = scenario_from(args);
  return request;
}

/// --sweep-threads and --progress: how a sweep shards its runs across
/// host threads.  The flag wins over SOC_SWEEP_THREADS; 0 (the default)
/// means all host cores.
void add_fan_out(ArgParser& args) {
  args.add_flag("--sweep-threads",
                "host threads (0 = all cores; overrides SOC_SWEEP_THREADS)");
  args.add_bool("--progress", "repaint a stderr progress/ETA line");
}

sweep::SweepOptions fan_out_from(const ArgParser& args, const char* label) {
  sweep::SweepOptions options;
  options.label = label;
  if (args.given("--sweep-threads")) {
    options.threads =
        parse_thread_count(args.get("--sweep-threads"), "--sweep-threads");
  } else if (const char* env = std::getenv("SOC_SWEEP_THREADS");
             env != nullptr && *env != '\0') {
    options.threads = parse_thread_count(env, "SOC_SWEEP_THREADS");
  }
  options.progress = args.get_bool("--progress");
  return options;
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
    const auto m = core::measure_roofline(
        cluster::energy_roofline_model(node, dp).roofline, r.stats, nodes,
        "run");
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

int cmd_list(const ArgParser&) {
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

int cmd_run(const ArgParser& args) {
  cluster::RunRequest request = request_from(args, args.get("--workload"));
  const std::string& name = request.workload;
  const auto& [node, nodes, ranks] = request.config;

  // Observability: attach only what the flags ask for, so the default
  // run keeps the engine's no-observer fast path.
  const bool want_metrics =
      args.get_bool("--metrics") || args.given("--report-json");
  obs::MetricsObserver metrics;
  obs::ChromeTraceRecorder chrome;
  obs::ObserverList observers;
  if (want_metrics) observers.add(&metrics);
  if (args.given("--chrome-trace")) observers.add(&chrome);
  if (!observers.empty()) request.options.observer = &observers;

  const auto result = cluster::run(request);
  std::printf("%s on %d x %s (%s, %d ranks)\n\n", name.c_str(), nodes,
              node.name.c_str(), node.nic.name.c_str(), ranks);
  print_result(result, node, nodes, name != "alexnet" && name != "googlenet");
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
    write_text(args.get("--chrome-trace"), chrome.json());
    std::printf("\nwrote %zu spans to %s\n", chrome.span_count(),
                args.get("--chrome-trace").c_str());
  }
  if (args.given("--report-json")) {
    write_text(args.get("--report-json"),
               cluster::report_json(request.config, request.options, name,
                                    result, &metrics.registry(),
                                    &request.scenario));
    std::printf("wrote run report to %s\n",
                args.get("--report-json").c_str());
  }
  return 0;
}

// Audits one workload: the baseline run, `repeats` serial replays, and
// `repeats` parallel_for replays must all commit the identical event
// stream (RunStats::event_checksum).  Returns true when they do.
bool audit_workload(const std::string& name, const ArgParser& args,
                    int repeats) {
  // Scenario decorators participate in the audit: fault/noise/checkpoint
  // streams must replay bit-identically like any workload.  Every run,
  // each parallel replica included, resolves its own workload instance
  // from the registry tag: the audit must hold with zero shared mutable
  // state, exactly like the bench sweeps.
  const cluster::RunRequest request = request_from(args, name);
  const sim::RunStats baseline = cluster::run(request).stats;
  const auto same = [&](const sim::RunStats& r) {
    return r.event_checksum == baseline.event_checksum;
  };
  bool serial_ok = true;
  for (int i = 1; i < repeats; ++i) {
    serial_ok = same(cluster::run(request).stats) && serial_ok;
  }
  std::vector<char> parallel(static_cast<std::size_t>(repeats), 0);
  parallel_for(parallel.size(), [&](std::size_t i) {
    parallel[i] = same(cluster::run(request).stats);
  });
  const bool parallel_ok =
      std::find(parallel.begin(), parallel.end(), 0) == parallel.end();

  std::printf("%-11s checksum=%016llx events=%llu serial[%dx]=%s "
              "parallel[%dx]=%s\n",
              name.c_str(),
              static_cast<unsigned long long>(baseline.event_checksum),
              static_cast<unsigned long long>(baseline.events_committed),
              repeats, serial_ok ? "ok" : "MISMATCH", repeats,
              parallel_ok ? "ok" : "MISMATCH");
  return serial_ok && parallel_ok;
}

int cmd_audit(const ArgParser& args) {
  const std::vector<std::string> names = workload_list(args, false);
  const int repeats = args.get_int("--repeats");
  if (repeats < 2) throw UsageError("--repeats must be at least 2");
  bool ok = true;
  for (const std::string& name : names) {
    ok = audit_workload(name, args, repeats) && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "socbench: determinism audit FAILED — replays of "
                         "the same configuration diverged\n");
    return 1;
  }
  std::printf("determinism audit passed (%zu workload%s)\n", names.size(),
              names.size() == 1 ? "" : "s");
  return 0;
}

int cmd_sweep(const ArgParser& args) {
  sweep::Grid grid;
  grid.workloads = workload_list(args, false);
  grid.nodes = node_list(args);
  grid.nics = {net::NicKind::kGigabit, net::NicKind::kTenGigabit};
  if (args.get("--nic") != "both") grid.nics = {parse_nic(args.get("--nic"))};
  grid.base = options_from(args);
  grid.scenario = scenario_from(args);
  const auto requests = grid.requests();

  sweep::SweepRunner runner(fan_out_from(args, "socbench sweep"));
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
    write_text(path, sweep::sweep_report_json("socbench sweep", requests,
                                              results, runner.summary()));
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
    write_text(path, cluster::energy_roofline_json("socbench sweep", requests,
                                                   results, measurements));
    std::printf("\nwrote energy roofline to %s\n", path.c_str());
  }
  return 0;
}

int cmd_frontier(const ArgParser& args) {
  sweep::Grid grid;
  grid.workloads = workload_list(args, true);
  grid.nodes = node_list(args);
  grid.nics = {parse_nic(args.get("--nic"))};
  grid.gpu_fractions =
      checked_list(args, "--gpu-fractions", unit_interval, "within [0, 1]");
  grid.dvfs =
      checked_list(args, "--dvfs", positive_finite, "positive and finite");
  grid.base = options_from(args, false);
  const auto requests = grid.requests();

  sweep::SweepRunner runner(fan_out_from(args, "socbench frontier"));
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
    write_text(path, sweep::frontier_json("socbench frontier", grid, points));
    std::printf("\nwrote frontier report to %s\n", path.c_str());
  }
  return 0;
}

int cmd_decompose(const ArgParser& args) {
  const cluster::RunRequest request =
      request_from(args, args.get("--workload"));
  const auto& [node, nodes, ranks] = request.config;
  const auto runs = cluster::replay_scenarios(request);
  const auto d = core::decompose(runs);
  std::printf("%s on %d nodes (%s, %d ranks): Eq. 4 decomposition\n\n",
              request.workload.c_str(), nodes, node.nic.name.c_str(), ranks);
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
  cluster::RunRequest request = request_from(args, args.get("--workload"));
  const auto& [node, nodes, ranks] = request.config;
  const auto what_ifs = [&](const char* flag) {
    return args.given(flag) ? checked_list(args, flag, positive_finite,
                                           "positive and finite")
                            : std::vector<double>{};
  };
  const std::vector<double> dvfs = what_ifs("--dvfs");
  const std::vector<double> caps = what_ifs("--cap-watts");
  // apply_power_cap refuses a cap at or under this floor; refuse it
  // before the run prints anything.
  const double floor_w = power::idle_floor_watts(node.power, nodes);
  for (const double cap : caps) {
    if (!(cap > floor_w)) {
      throw UsageError("--cap-watts values must clear the cluster's idle "
                       "floor of " + TextTable::num(floor_w, 2) + " W");
    }
  }

  // A DVFS what-if runs this request, unprofiled, at another clock.
  const cluster::RunRequest plain = request;
  prof::Profile profile;
  request.profile = &profile;
  const auto result = cluster::run(request);
  if (args.given("--profile-json")) {
    write_text(args.get("--profile-json"), prof::profile_json(profile));
  }
  if (args.given("--folded")) {
    write_text(args.get("--folded"), prof::folded_stacks(profile));
  }

  std::printf("%s on %d x %s (%s, %d ranks): critical path\n\n",
              request.workload.c_str(), nodes, node.name.c_str(),
              node.nic.name.c_str(), ranks);
  std::printf("runtime        : %.3f s (%llu events, checksum %s)\n",
              result.seconds,
              static_cast<unsigned long long>(result.stats.events_committed),
              obs::checksum_hex(result.stats.event_checksum).c_str());

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
      write_text(args.get("--energy-json"), prof::energy_json(e));
      std::printf("wrote energy attribution to %s\n",
                  args.get("--energy-json").c_str());
    }
  }

  if (!dvfs.empty() || !caps.empty()) {
    std::printf("\nenergy what-ifs (dvfs re-runs at that clock; caps clamp "
                "the measured power):\n");
    std::printf("  %-22s: %.3f s, %.1f J\n", "measured run", result.seconds,
                result.joules);
    for (const double f : dvfs) {
      cluster::RunRequest at = plain;
      at.config.node = systems::with_dvfs(node, f);
      const cluster::RunResult r = cluster::run(at);
      std::printf("  dvfs %.2f              : %.3f s (%.2fx), %.1f J "
                  "(%.2fx), avg %.1f W\n",
                  f, r.seconds, r.seconds / result.seconds, r.joules,
                  r.joules / result.joules, r.average_watts);
    }
    for (const double cap : caps) {
      const power::CappedEnergy capped = power::apply_power_cap(
          power::power_timeline(result.stats, node.power, node.cpu_cores),
          node.power, nodes, cap);
      std::printf("  cap %-6.1f W          : %.3f s (+%.3f s), %.1f J, "
                  "%zu bins clamped\n",
                  cap, capped.energy.seconds,
                  capped.energy.seconds - result.seconds, capped.energy.joules,
                  capped.capped_bins);
    }
  }

  if (args.given("--profile-json")) {
    std::printf("wrote critical-path artifact to %s\n",
                args.get("--profile-json").c_str());
  }
  if (args.given("--folded")) {
    std::printf("wrote folded stacks to %s\n", args.get("--folded").c_str());
  }
  return 0;
}

int cmd_trace(const ArgParser& args) {
  const auto workload = workload_from(args);
  const cluster::ClusterConfig shape = shape_from(args, *workload);
  const cluster::RunOptions options = options_from(args);
  workloads::BuildContext ctx;
  ctx.nodes = shape.nodes;
  ctx.ranks = shape.ranks;
  ctx.size_scale = options.size_scale;
  ctx.mem_model = options.mem_model;
  ctx.gpu_work_fraction = options.gpu_work_fraction;
  const auto programs = workload->build(ctx);
  write_text(args.get("--out"), trace::export_programs(programs));
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
  const sim::Placement placement = sim::Placement::block(ranks, nodes);
  const sim::EngineConfig engine_config = cluster::engine_config(config, {});
  sim::ProgramSource source(programs);
  const bool ideal_network = args.get_bool("--ideal-network");
  const sim::RunStats stats =
      ideal_network
          ? trace::replay_ideal_network(placement, cost, source, engine_config)
          : sim::Engine(placement, cost, engine_config).run(source);
  std::printf("replayed %d ranks on %d nodes%s: %.3f s, %.2f GFLOP/s, "
              "%.3f GB over the network (%llu events, checksum %s)\n",
              ranks, nodes, ideal_network ? " (ideal network)" : "",
              stats.seconds(), stats.flops_per_second() / 1e9,
              static_cast<double>(stats.total_net_bytes) / 1e9,
              static_cast<unsigned long long>(stats.events_committed),
              obs::checksum_hex(stats.event_checksum).c_str());
  return 0;
}

/// One socbench command.  `declare` declares on a fresh ArgParser exactly
/// the flags `run` reads, so the parser refuses any other.
struct Command {
  const char* name;
  const char* summary;
  void (*declare)(ArgParser&);
  int (*run)(const ArgParser&);
};

constexpr Command kCommands[] = {
    {"list", "workloads and machine models available", [](ArgParser&) {},
     cmd_list},
    {"run", "one metered run: runtime, throughput, energy, traffic, roofline",
     [](ArgParser& args) {
       add_request(args);
       args.add_bool("--timeline", "render per-node utilization strips");
       args.add_bool("--metrics", "print the metrics registry");
       args.add_flag("--chrome-trace", "write a Chrome trace (Perfetto) here");
       args.add_flag("--report-json", "write a canonical run report here");
     },
     cmd_run},
    {"audit", "serial and parallel replays must commit bit-identical events",
     [](ArgParser& args) {
       add_request(args, "workload tag, or all");
       args.add_flag("--repeats", "replays per audit mode, at least 2", "4");
     },
     cmd_audit},
    {"sweep", "cluster-size sweep, one row per (size, NIC)",
     [](ArgParser& args) {
       args.add_flag("--workload", "workload tag, or all", "jacobi");
       args.add_flag("--nodes", "CSV of cluster sizes", "8");
       args.add_flag("--nic", "1g, 10g, or both", "10g");
       add_options(args);
       add_scenario(args);
       add_fan_out(args);
       args.add_flag("--report-json",
                     "write a soccluster-sweep-report/v1 here");
       args.add_flag("--energy-roofline",
                     "write a soccluster-energy-roofline/v1 (GFLOPS/W) here");
     },
     cmd_sweep},
    {"frontier", "perf-per-watt Pareto frontier over GPU share x DVFS x nodes",
     [](ArgParser& args) {
       args.add_flag("--workload", "CSV of workload tags, or all", "jacobi");
       args.add_flag("--nodes", "CSV of cluster sizes", "8");
       add_nic(args);
       add_options(args, false);
       args.add_flag("--gpu-fractions", "CSV of GPU work fractions",
                     "0.5,0.75,1.0");
       args.add_flag("--dvfs", "CSV of relative clocks", "0.6,0.8,1.0");
       add_fan_out(args);
       args.add_flag("--report-json",
                     "write a soccluster-energy-frontier/v1 here");
     },
     cmd_frontier},
    {"decompose", "LB/Ser/Trf efficiency decomposition (paper Eq. 4)",
     [](ArgParser& args) { add_request(args); }, cmd_decompose},
    {"explain", "critical-path and energy attribution of one profiled run",
     [](ArgParser& args) {
       add_request(args);
       args.add_flag("--profile-json",
                     "write a soccluster-critical-path/v2 here");
       args.add_flag("--folded",
                     "write flamegraph-compatible folded stacks here");
       args.add_bool("--energy", "print the zero-residual joule attribution");
       args.add_flag("--energy-json",
                     "write a soccluster-energy-attribution/v1 here");
       args.add_flag("--dvfs", "CSV of relative clocks to rerun it at");
       args.add_flag("--cap-watts",
                     "CSV of cluster power caps for the measured run");
     },
     cmd_explain},
    {"trace", "record the generated per-rank programs to a .soctrace file",
     [](ArgParser& args) {
       add_shape(args, kWorkloadHelp);
       add_options(args);
       args.add_flag("--out", "output trace path", "run.soctrace");
     },
     cmd_trace},
    {"replay", "replay a recorded trace, costed as --workload",
     [](ArgParser& args) {
       args.add_flag("--workload",
                     "required: whose CPU profile costs the trace");
       args.add_flag("--trace", "input trace path", "run.soctrace");
       args.add_flag("--nodes", "cluster size", "8");
       add_nic(args);
       args.add_bool("--ideal-network", "replay with zero-cost network");
     },
     cmd_replay},
};

void print_usage() {
  std::printf("usage: socbench <command> [flags]\n\ncommands:\n");
  for (const Command& command : kCommands) {
    std::printf("  %-10s %s\n", command.name, command.summary);
  }
  // The workload line derives from the registry, so usage can never
  // drift from what make_workload accepts.
  std::printf(
      "\n'socbench <command> --help' lists the flags a command reads; it\n"
      "refuses any other.  Scenario decorators (--fault, --noise,\n"
      "--checkpoint) compose, stay bit-deterministic, and are attributed\n"
      "with zero residual by 'explain' (category `injected`).\n"
      "\nworkloads: %s\n", workload_tags().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw UsageError("no command (see socbench --help)");
    const std::string name = argv[1];
    if (name == "--help" || name == "-h") {
      print_usage();
      return 0;
    }
    const Command* command = std::find_if(
        std::begin(kCommands), std::end(kCommands),
        [&](const Command& c) { return name == c.name; });
    if (command == std::end(kCommands)) {
      throw UsageError("unknown command '" + name + "' (see socbench --help)");
    }
    ArgParser args;
    command->declare(args);
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        const std::string flags = args.usage();
        std::printf("usage: socbench %s%s\n\n%s\n", command->name,
                    flags.empty() ? "" : " [flags]", command->summary);
        if (!flags.empty()) std::printf("\nflags:\n%s", flags.c_str());
        return 0;
      }
    }
    args.parse(argc, argv, 2);
    if (!args.positional().empty()) {
      throw UsageError("unexpected argument '" + args.positional().front() +
                       "'");
    }
    return command->run(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "socbench: %s\n", e.what());
    return 2;
  } catch (const soc::Error& e) {
    std::fprintf(stderr, "socbench: %s\n", e.what());
    return 1;
  }
}
