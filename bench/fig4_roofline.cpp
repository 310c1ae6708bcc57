// Figure 4: the extended Roofline model for the proposed cluster, plotted
// for both network speeds.  Prints the attainable-performance ceiling as
// a function of operational intensity for several network intensities
// (ASCII rendering of the paper's two panels).
#include <cmath>
#include <cstdio>

#include "bench_common.h"

namespace {

void print_panel(const char* title, const char* tag,
                 const soc::core::ExtendedRoofline& model) {
  using namespace soc;
  std::printf("%s\n", title);
  std::printf("  peak compute: %.1f GFLOP/s (DP), memory BW: %.1f GB/s, "
              "network BW: %.3f GB/s\n",
              model.peak_flops / 1e9, model.memory_bandwidth / 1e9,
              model.network_bandwidth / 1e9);

  const double nis[] = {10.0, 100.0, 1000.0};
  TextTable table({"OI (FLOP/B)", "NI=10", "NI=100", "NI=1000",
                   "limit@NI=100"});
  for (double oi = 0.0625; oi <= 64.0; oi *= 4.0) {
    std::vector<std::string> row{TextTable::num(oi, 4)};
    for (double ni : nis) {
      row.push_back(TextTable::num(model.attainable(oi, ni) / 1e9, 2));
    }
    row.push_back(core::limit_name(model.limit(oi, 100.0)));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.str().c_str());
  bench::write_artifact("fig4_roofline", table, tag);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace soc;
  bench::reject_arguments(argc, argv);
  std::printf("Figure 4: extended Roofline (attainable GFLOP/s per node)\n\n");
  print_panel("(a) 10GbE NIC", "10g",
              bench::tx1_roofline(net::NicKind::kTenGigabit));
  print_panel("(b) on-board 1GbE", "1g",
              bench::tx1_roofline(net::NicKind::kGigabit));
  return 0;
}
