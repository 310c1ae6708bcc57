#include "sweep/frontier.h"

#include "common/error.h"
#include "obs/json.h"

namespace soc::sweep {

std::vector<FrontierPoint> perf_per_watt_frontier(
    const Grid& grid, const std::vector<cluster::RunResult>& results) {
  const std::vector<cluster::RunRequest> requests = grid.requests();
  SOC_CHECK(results.size() == requests.size(),
            "frontier: results do not match the grid");
  std::vector<FrontierPoint> points;
  points.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const cluster::RunRequest& q = requests[i];
    const cluster::RunResult& r = results[i];
    FrontierPoint p;
    p.workload = q.workload;
    p.nodes = q.config.nodes;
    p.ranks = q.config.ranks;
    p.gpu_fraction = q.options.gpu_work_fraction;
    // The clock is the grid's innermost axis.
    p.dvfs = grid.dvfs.empty() ? 1.0 : grid.dvfs[i % grid.dvfs.size()];
    p.seconds = r.seconds;
    p.joules = r.joules;
    p.gflops = r.gflops;
    p.average_watts = r.average_watts;
    p.mflops_per_watt = r.mflops_per_watt;
    p.event_checksum = r.stats.event_checksum;
    points.push_back(std::move(p));
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

std::string frontier_json(const std::string& label, const Grid& grid,
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
