// Ablation (DESIGN.md §5.2): the network contention model — per-NIC FIFO
// serialization alone vs adding the switch's bisection-bandwidth cap.
// ft's all-to-all is the stress case: with 16 nodes each pushing ~3.3
// Gb/s the Cisco-class fabric is far from saturated, but a cheap 10 Gb/s
// backplane would throttle it hard.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace soc;
  const struct {
    const char* label;
    double bisection;
  } fabrics[] = {
      {"NIC FIFO only (no fabric cap)", -1.0},  // disable via tiny epsilon
      {"160 Gb/s fabric (Cisco 350XG class)", gbit_per_s(160.0)},
      {"40 Gb/s fabric", gbit_per_s(40.0)},
      {"10 Gb/s fabric (oversubscribed)", gbit_per_s(10.0)},
  };
  const char* names[] = {"ft", "is", "tealeaf3d"};
  const int nodes = 16;

  std::vector<cluster::RunRequest> requests;
  for (const auto& f : fabrics) {
    for (const char* name : names) {
      const auto workload = workloads::make_workload(name);
      cluster::RunOptions options;
      options.size_scale = 0.3;
      // The cluster fills in the node's switch config when 0; use a huge
      // value to express "uncapped".
      options.engine.bisection_bandwidth = f.bisection < 0 ? 1e18
                                                           : f.bisection;
      requests.push_back(
          bench::tx1_request(name, net::NicKind::kTenGigabit, nodes,
                             sweep::natural_ranks(*workload, nodes), options));
    }
  }

  sweep::SweepRunner runner(
      bench::sweep_options(argc, argv, "ablation_contention"));
  const auto results = runner.run(requests);

  TextTable table({"fabric model", "ft (s)", "is (s)", "tealeaf3d (s)"});
  std::size_t job = 0;
  for (const auto& f : fabrics) {
    std::vector<std::string> row{f.label};
    for (std::size_t n = 0; n < std::size(names); ++n) {
      row.push_back(TextTable::num(results[job++].seconds, 2));
    }
    table.add_row(std::move(row));
  }
  std::printf(
      "Ablation: network contention model (16 nodes, 10GbE NICs)\n\n%s",
      table.str().c_str());
  return 0;
}
