// Ablation (DESIGN.md §5.1): eager/rendezvous protocol threshold.
// Latency-sensitive workloads (cg's dot-product allreduces, lu's
// wavefront messages) care about whether small messages block the sender;
// bandwidth-bound workloads don't.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace soc;
  const Bytes thresholds[] = {0, 1 * kKiB, 8 * kKiB, 64 * kKiB, 1 * kMiB};
  const char* names[] = {"cg", "lu", "ft", "jacobi"};
  const int nodes = 8;

  std::vector<cluster::RunRequest> requests;
  for (const char* name : names) {
    const auto workload = workloads::make_workload(name);
    const int ranks = sweep::natural_ranks(*workload, nodes);
    for (Bytes threshold : thresholds) {
      cluster::RunOptions options;
      options.size_scale = 0.3;
      options.engine.eager_threshold = threshold;
      requests.push_back(bench::tx1_request(name, net::NicKind::kTenGigabit,
                                            nodes, ranks, options));
    }
  }

  sweep::SweepRunner runner(
      bench::sweep_options(argc, argv, "ablation_protocol"));
  const auto results = runner.run(requests);

  TextTable table({"workload", "rendezvous-only", "eager<=1K", "eager<=8K",
                   "eager<=64K", "eager<=1M"});
  std::size_t job = 0;
  for (const char* name : names) {
    std::vector<std::string> row{name};
    for (std::size_t t = 0; t < std::size(thresholds); ++t) {
      row.push_back(TextTable::num(results[job++].seconds, 2) + "s");
    }
    table.add_row(std::move(row));
  }
  std::printf(
      "Ablation: runtime vs eager-protocol threshold (8 nodes, 10GbE)\n\n%s",
      table.str().c_str());
  return 0;
}
