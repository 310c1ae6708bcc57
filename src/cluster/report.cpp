#include "cluster/report.h"

#include "common/error.h"
#include "obs/json.h"

namespace soc::cluster {

const char* mem_model_name(sim::MemModel mm) {
  switch (mm) {
    case sim::MemModel::kHostDevice: return "host-device";
    case sim::MemModel::kZeroCopy: return "zero-copy";
    case sim::MemModel::kUnified: return "unified";
  }
  return "?";
}

namespace {

void write_breakdown(obs::JsonWriter& w, const power::EnergyBreakdown& b) {
  w.begin_object();
  w.field("idle", b.idle);
  w.field("cpu", b.cpu);
  w.field("gpu", b.gpu);
  w.field("nic", b.nic);
  w.field("dram", b.dram);
  w.end_object();
}

void write_energy(obs::JsonWriter& w, const power::EnergyReport& e) {
  w.begin_object();
  w.field("joules", e.joules);
  w.field("average_watts", e.average_watts);
  w.field("peak_watts", e.peak_watts);
  w.field("seconds", e.seconds);
  w.key("breakdown");
  write_breakdown(w, e.breakdown);
  // The 1 Hz wall-socket trace, one object per second: total draw plus
  // the per-component split (samples_parts is index-parallel with
  // samples_w by construction).
  w.newline();
  w.key("samples_1hz");
  w.begin_array();
  for (std::size_t s = 0; s < e.samples_w.size(); ++s) {
    w.newline();
    w.begin_object();
    w.field("watts", e.samples_w[s]);
    const power::EnergyBreakdown p =
        s < e.samples_parts.size() ? e.samples_parts[s]
                                   : power::EnergyBreakdown{};
    w.field("idle", p.idle);
    w.field("cpu", p.cpu);
    w.field("gpu", p.gpu);
    w.field("nic", p.nic);
    w.field("dram", p.dram);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_counters(obs::JsonWriter& w, const arch::CounterSet& c) {
  w.begin_object();
  for (std::size_t i = 0; i < arch::kPmuEventCount; ++i) {
    const auto e = static_cast<arch::PmuEvent>(i);
    w.field(arch::pmu_event_name(e), c[e]);
  }
  w.end_object();
}

void write_rank(obs::JsonWriter& w, const sim::RankStats& r) {
  w.begin_object();
  w.field("finish_time_ns", r.finish_time);
  w.field("cpu_busy_ns", r.cpu_busy);
  w.field("gpu_busy_ns", r.gpu_busy);
  w.field("gpu_queue_wait_ns", r.gpu_queue_wait);
  w.field("copy_busy_ns", r.copy_busy);
  w.field("send_blocked_ns", r.send_blocked);
  w.field("recv_blocked_ns", r.recv_blocked);
  w.field("msg_overhead_ns", r.msg_overhead);
  w.field("net_bytes_sent", static_cast<std::int64_t>(r.net_bytes_sent));
  w.field("net_bytes_received",
          static_cast<std::int64_t>(r.net_bytes_received));
  w.field("intra_bytes_sent", static_cast<std::int64_t>(r.intra_bytes_sent));
  w.field("dram_bytes", static_cast<std::int64_t>(r.dram_bytes));
  w.field("flops", r.flops);
  w.field("instructions", r.instructions);
  w.field("messages_sent", r.messages_sent);
  w.field("messages_received", r.messages_received);
  w.end_object();
}

}  // namespace

void write_scenario(obs::JsonWriter& w, const workloads::ScenarioConfig& s) {
  w.begin_object();
  w.key("faults");
  w.begin_array();
  for (const workloads::FaultSpec& f : s.faults) {
    w.newline();
    w.begin_object();
    w.field("kind", workloads::fault_kind_name(f.kind));
    switch (f.kind) {
      case workloads::FaultSpec::Kind::kNodeCrash:
        w.field("node", f.node);
        w.field("t_seconds", f.start_seconds);
        w.field("downtime_seconds", f.downtime_seconds);
        break;
      case workloads::FaultSpec::Kind::kLinkFlap:
        w.field("node", f.node);
        w.field("t0_seconds", f.start_seconds);
        w.field("t1_seconds", f.end_seconds);
        break;
      case workloads::FaultSpec::Kind::kStraggler:
        w.field("rank", f.rank);
        w.field("slowdown", f.slowdown);
        break;
    }
    w.end_object();
  }
  w.end_array();
  if (s.noise.enabled()) {
    w.newline();
    w.key("noise");
    w.begin_object();
    w.field("seed", static_cast<std::int64_t>(s.noise.seed));
    w.field("interval_seconds", s.noise.interval_seconds);
    w.field("duration_seconds", s.noise.duration_seconds);
    w.field("jitter", s.noise.jitter);
    w.end_object();
  }
  if (s.checkpoint.enabled()) {
    w.newline();
    w.key("checkpoint");
    w.begin_object();
    w.field("size_bytes", s.checkpoint.size_bytes);
    w.field("bandwidth", s.checkpoint.bandwidth);
    w.field("mtti_seconds", s.checkpoint.mtti_seconds);
    w.field("runtime_seconds", s.checkpoint.runtime_seconds);
    const double write_seconds =
        s.checkpoint.size_bytes / s.checkpoint.bandwidth;
    w.field("write_seconds", write_seconds);
    w.field("daly_interval_seconds",
            workloads::daly_optimal_interval(write_seconds,
                                             s.checkpoint.mtti_seconds));
    w.end_object();
  }
  w.end_object();
}

std::string report_json(const ClusterConfig& config,
                        const RunOptions& options,
                        const std::string& workload,
                        const RunResult& result,
                        const obs::MetricsRegistry* metrics,
                        const workloads::ScenarioConfig* scenario) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-run-report/v1");
  w.field("workload", std::string_view(workload));
  w.newline();

  w.key("config");
  w.begin_object();
  w.field("node", std::string_view(config.node.name));
  w.field("nodes", config.nodes);
  w.field("ranks", config.ranks);
  w.field("mem_model", mem_model_name(options.mem_model));
  w.field("gpu_work_fraction", options.gpu_work_fraction);
  w.field("size_scale", options.size_scale);
  w.field("overlap_halos", options.overlap_halos);
  w.field("eager_threshold_bytes",
          static_cast<std::int64_t>(options.engine.eager_threshold));
  w.field("bisection_bandwidth",
          engine_config(config, options).bisection_bandwidth);
  w.end_object();
  w.newline();

  // Only an enabled scenario is serialized: scenario-free reports stay
  // byte-identical to the pre-scenario schema.
  if (scenario != nullptr && scenario->enabled()) {
    w.key("scenario");
    write_scenario(w, *scenario);
    w.newline();
  }

  w.key("result");
  w.begin_object();
  w.field("seconds", result.seconds);
  w.field("gflops", result.gflops);
  w.field("mflops_per_watt", result.mflops_per_watt);
  w.field("joules", result.joules);
  w.field("average_watts", result.average_watts);
  w.field("makespan_ns", result.stats.makespan);
  w.field("event_checksum", checksum_hex(result.stats.event_checksum));
  w.field("events_committed", result.stats.events_committed);
  w.field("total_net_bytes",
          static_cast<std::int64_t>(result.stats.total_net_bytes));
  w.field("total_dram_bytes",
          static_cast<std::int64_t>(result.stats.total_dram_bytes));
  w.field("total_gpu_dram_bytes",
          static_cast<std::int64_t>(result.stats.total_gpu_dram_bytes));
  w.field("total_flops", result.stats.total_flops);
  w.field("total_gpu_flops", result.stats.total_gpu_flops);
  w.newline();
  w.key("ranks");
  w.begin_array();
  for (const sim::RankStats& r : result.stats.ranks) {
    w.newline();
    write_rank(w, r);
  }
  w.end_array();
  w.end_object();
  w.newline();

  w.key("energy");
  write_energy(w, result.energy);
  w.newline();

  w.key("counters");
  write_counters(w, result.counters);
  w.newline();

  if (metrics != nullptr) {
    w.key("metrics");
    metrics->write_json(w);
    w.newline();
  }
  w.end_object();

  std::string out = w.str();
  out += '\n';
  return out;
}

core::EnergyRoofline energy_roofline_model(const systems::NodeConfig& node,
                                           bool dp) {
  core::EnergyRoofline model;
  model.roofline.peak_flops =
      dp ? node.gpu.peak_dp_flops() : node.gpu.peak_sp_flops();
  model.roofline.memory_bandwidth = node.dram.gpu_bandwidth;
  model.roofline.network_bandwidth = node.nic.effective_bandwidth;
  model.power = node.power;
  return model;
}

std::string energy_roofline_json(
    const std::string& label, const std::vector<RunRequest>& requests,
    const std::vector<RunResult>& results,
    const std::vector<core::EnergyRooflineMeasurement>& measurements) {
  SOC_CHECK(requests.size() == results.size() &&
                requests.size() == measurements.size(),
            "energy roofline: requests/results/measurements must be parallel");
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-energy-roofline/v1");
  w.field("label", std::string_view(label));
  w.newline();
  w.key("runs");
  w.begin_array();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RunRequest& req = requests[i];
    const RunResult& res = results[i];
    const core::EnergyRooflineMeasurement& m = measurements[i];
    w.newline();
    w.begin_object();
    w.field("workload", std::string_view(m.roofline.benchmark));
    w.field("node", std::string_view(req.config.node.name));
    w.field("nodes", req.config.nodes);
    w.field("ranks", req.config.ranks);
    w.field("gpu_work_fraction", req.options.gpu_work_fraction);
    w.field("seconds", res.seconds);
    w.field("gflops", res.gflops);
    w.field("joules", res.joules);
    w.field("average_watts", res.average_watts);
    w.field("event_checksum", checksum_hex(res.stats.event_checksum));
    w.field("operational_intensity", m.roofline.operational_intensity);
    w.field("network_intensity", m.roofline.network_intensity);
    w.field("achieved_gflops_per_node", m.roofline.achieved_flops / 1e9);
    w.field("attainable_gflops_per_node", m.roofline.attainable_flops / 1e9);
    w.field("limit", core::limit_name(m.roofline.limiting_intensity));
    w.field("sustained_watts_per_node", m.sustained_watts);
    w.field("achieved_gflops_per_watt", m.achieved_gflops_per_watt);
    w.field("attainable_gflops_per_watt", m.attainable_gflops_per_watt);
    w.field("percent_of_ceiling", m.percent_of_ceiling);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

}  // namespace soc::cluster
