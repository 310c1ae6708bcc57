// Extension study (beyond the paper): the Fig 5/6 extrapolations to 256
// nodes silently assume one big switch.  What happens to the good
// scalers when a realistic two-level fat tree (16-port leaf switches)
// adds hops and caps the cross-pod bisection?
#include <cstdio>

#include "bench_common.h"
#include "core/scaling.h"

int main(int argc, char** argv) {
  using namespace soc;
  const char* names[] = {"jacobi", "hpl", "ft"};
  const struct {
    const char* label;
    net::Topology topology;
    double bisection;
  } fabrics[] = {
      {"single switch", net::Topology::kSingleSwitch, gbit_per_s(320.0)},
      {"fat tree 16-port", net::Topology::kFatTree2, gbit_per_s(80.0)},
      {"fat tree, 2:1 oversub", net::Topology::kFatTree2, gbit_per_s(40.0)},
  };
  const int nodes = 32;

  std::vector<cluster::RunRequest> requests;
  for (const char* name : names) {
    const auto workload = workloads::make_workload(name);
    const int ranks = sweep::natural_ranks(*workload, nodes);
    for (const auto& f : fabrics) {
      systems::NodeConfig node =
          systems::jetson_tx1(net::NicKind::kTenGigabit);
      node.switch_config.topology = f.topology;
      node.switch_config.pod_size = 16;
      node.switch_config.bisection_bandwidth = f.bisection;
      cluster::RunRequest request;
      request.workload = name;
      request.config = {node, nodes, ranks};
      request.options.size_scale = 0.5;
      requests.push_back(std::move(request));
    }
  }

  sweep::SweepRunner runner(
      bench::sweep_options(argc, argv, "extension_topology"));
  const auto results = runner.run(requests);

  TextTable table({"workload", "fabric", "32-node runtime (s)",
                   "vs single switch"});
  std::size_t job = 0;
  for (const char* name : names) {
    double base = 0.0;
    for (const auto& f : fabrics) {
      const auto& r = results[job++];
      if (base == 0.0) base = r.seconds;
      table.add_row({name, f.label, TextTable::num(r.seconds, 2),
                     TextTable::num(r.seconds / base, 2) + "x"});
    }
  }
  std::printf(
      "Extension: fabric topology at 32 nodes (beyond one switch's ports)\n"
      "(halo codes barely notice the extra hops; the all-to-all transpose\n"
      "pays for cross-pod bisection)\n\n%s",
      table.str().c_str());
  return 0;
}
