#include "sweep/frontier.h"

#include "common/error.h"
#include "obs/json.h"
#include "sweep/grid.h"
#include "systems/machines.h"

namespace soc::sweep {

std::size_t FrontierGrid::size() const {
  return workloads.size() * nodes.size() * gpu_fractions.size() * dvfs.size();
}

std::vector<cluster::RunRequest> FrontierGrid::requests() const {
  SOC_CHECK(!nodes.empty(), "frontier grid needs at least one node count");
  SOC_CHECK(!gpu_fractions.empty(),
            "frontier grid needs at least one GPU work fraction");
  SOC_CHECK(!dvfs.empty(), "frontier grid needs at least one DVFS point");

  std::vector<cluster::RunRequest> out;
  out.reserve(size());
  for (const std::string& tag : workloads) {
    const auto workload = workloads::make_workload(tag);
    for (const int n : nodes) {
      const int r = natural_ranks(*workload, n);
      for (const double fraction : gpu_fractions) {
        for (const double f : dvfs) {
          cluster::RunRequest request;
          request.workload = tag;
          request.config = {systems::with_dvfs(systems::jetson_tx1(nic), f),
                            n, r};
          request.options = base;
          request.options.gpu_work_fraction = fraction;
          out.push_back(std::move(request));
        }
      }
    }
  }
  return out;
}

std::vector<FrontierPoint> perf_per_watt_frontier(
    const FrontierGrid& grid, const std::vector<cluster::RunResult>& results) {
  SOC_CHECK(results.size() == grid.size(),
            "frontier: results do not match the grid");
  std::vector<FrontierPoint> points;
  points.reserve(results.size());
  std::size_t i = 0;
  for (const std::string& tag : grid.workloads) {
    for (const int n : grid.nodes) {
      for (const double fraction : grid.gpu_fractions) {
        for (const double f : grid.dvfs) {
          const cluster::RunResult& r = results[i++];
          FrontierPoint p;
          p.workload = tag;
          p.nodes = n;
          p.ranks = static_cast<int>(r.stats.ranks.size());
          p.gpu_fraction = fraction;
          p.dvfs = f;
          p.seconds = r.seconds;
          p.joules = r.joules;
          p.gflops = r.gflops;
          p.average_watts = r.average_watts;
          p.mflops_per_watt = r.mflops_per_watt;
          p.event_checksum = r.stats.event_checksum;
          points.push_back(std::move(p));
        }
      }
    }
  }
  // Pareto marking per workload: a point survives unless another point
  // of the same workload weakly dominates it in (runtime, energy) and is
  // strictly better on one axis.  O(n^2) over a per-workload group is
  // trivial at sweep sizes and has no ordering sensitivity.
  for (FrontierPoint& p : points) {
    bool dominated = false;
    for (const FrontierPoint& q : points) {
      if (&q == &p || q.workload != p.workload) continue;
      if (q.seconds <= p.seconds && q.joules <= p.joules &&
          (q.seconds < p.seconds || q.joules < p.joules)) {
        dominated = true;
        break;
      }
    }
    p.pareto = !dominated;
  }
  return points;
}

std::string frontier_json(const std::string& label, const FrontierGrid& grid,
                          const std::vector<FrontierPoint>& points) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-energy-frontier/v1");
  w.field("label", std::string_view(label));
  w.newline();
  w.key("axes");
  w.begin_object();
  w.key("workloads");
  w.begin_array();
  for (const std::string& tag : grid.workloads) w.value(std::string_view(tag));
  w.end_array();
  w.key("nodes");
  w.begin_array();
  for (const int n : grid.nodes) w.value(n);
  w.end_array();
  w.key("gpu_fractions");
  w.begin_array();
  for (const double v : grid.gpu_fractions) w.value(v);
  w.end_array();
  w.key("dvfs");
  w.begin_array();
  for (const double v : grid.dvfs) w.value(v);
  w.end_array();
  w.end_object();
  w.newline();
  w.key("points");
  w.begin_array();
  for (const FrontierPoint& p : points) {
    w.newline();
    w.begin_object();
    w.field("workload", std::string_view(p.workload));
    w.field("nodes", p.nodes);
    w.field("ranks", p.ranks);
    w.field("gpu_fraction", p.gpu_fraction);
    w.field("dvfs", p.dvfs);
    w.field("seconds", p.seconds);
    w.field("joules", p.joules);
    w.field("gflops", p.gflops);
    w.field("average_watts", p.average_watts);
    w.field("mflops_per_watt", p.mflops_per_watt);
    w.field("event_checksum", obs::checksum_hex(p.event_checksum));
    w.field("pareto", p.pareto);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

}  // namespace soc::sweep
