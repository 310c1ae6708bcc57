// Experiments report: runs a condensed version of every paper experiment
// and checks the qualitative result the paper reports, printing PASS /
// DEVIATION per claim.  This is the machine-checkable companion to
// EXPERIMENTS.md — if a code change breaks a reproduced shape, this
// binary (and the mirroring integration tests) says which one.
//
// All simulated runs are enumerated as RunRequests up front and executed
// by one sweep runner, so the whole report parallelizes across host
// cores; the checks then index into the result vector.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/counters_analysis.h"
#include "core/efficiency.h"
#include "core/extended_roofline.h"
#include "net/microbench.h"

namespace {

using namespace soc;

struct Claim {
  std::string artifact;
  std::string statement;
  bool pass = false;
  std::string measured;
};

std::vector<Claim> claims;

void check(const std::string& artifact, const std::string& statement,
           bool pass, const std::string& measured) {
  claims.push_back({artifact, statement, pass, measured});
}

cluster::RunOptions scaled(double s) {
  cluster::RunOptions o;
  o.size_scale = s;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<cluster::RunRequest> requests;
  auto add = [&requests](cluster::RunRequest request) {
    requests.push_back(std::move(request));
    return requests.size() - 1;
  };
  auto add_tx1 = [&add](const char* name, net::NicKind nic, int nodes,
                        int ranks, const cluster::RunOptions& options) {
    return add(bench::tx1_request(name, nic, nodes, ranks, options));
  };
  auto add_speedup_pair = [&](const char* name, int nodes, double scale) {
    const auto w = workloads::make_workload(name);
    const int ranks = sweep::natural_ranks(*w, nodes);
    const auto slow =
        add_tx1(name, net::NicKind::kGigabit, nodes, ranks, scaled(scale));
    add_tx1(name, net::NicKind::kTenGigabit, nodes, ranks, scaled(scale));
    return slow;  // fast run is slow + 1
  };

  // --- Fig 1 runs ---
  const auto i_hpl = add_speedup_pair("hpl", 8, 0.4);
  const auto i_t3d = add_speedup_pair("tealeaf3d", 8, 0.4);
  const auto i_jac = add_speedup_pair("jacobi", 8, 0.4);
  const auto i_dnn = add_speedup_pair("alexnet", 4, 0.2);

  // --- Fig 3 runs ---
  const auto i_fig3_slow =
      add_tx1("tealeaf3d", net::NicKind::kGigabit, 8, 8, scaled(0.4));
  const auto i_fig3_fast =
      add_tx1("tealeaf3d", net::NicKind::kTenGigabit, 8, 8, scaled(0.4));

  // --- Table II runs ---
  const auto i_t2_1g =
      add_tx1("hpl", net::NicKind::kGigabit, 8, 8, scaled(0.5));
  const auto i_t2_10g =
      add_tx1("hpl", net::NicKind::kTenGigabit, 8, 8, scaled(0.5));

  // --- Table III runs ---
  const auto i_t3_base =
      add_tx1("jacobi", net::NicKind::kTenGigabit, 1, 1, scaled(0.2));
  cluster::RunOptions zc = scaled(0.2);
  zc.mem_model = sim::MemModel::kZeroCopy;
  const auto i_t3_zc = add_tx1("jacobi", net::NicKind::kTenGigabit, 1, 1, zc);
  cluster::RunOptions um = scaled(0.2);
  um.mem_model = sim::MemModel::kUnified;
  const auto i_t3_um = add_tx1("jacobi", net::NicKind::kTenGigabit, 1, 1, um);

  // --- Fig 7 / Table IV runs ---
  const auto i_t4_gpu =
      add_tx1("hpl", net::NicKind::kTenGigabit, 4, 4, scaled(0.3));
  cluster::RunOptions cpu_only = scaled(0.3);
  cpu_only.gpu_work_fraction = 0.0;
  const auto i_t4_cpu =
      add_tx1("hpl", net::NicKind::kTenGigabit, 4, 16, cpu_only);
  const auto i_t4_both =
      add_tx1("hpl", net::NicKind::kTenGigabit, 4, 16, scaled(0.3));

  // --- Table VI / Fig 8 runs ---
  const std::vector<std::pair<const char*, bool>> t6_cases = {
      {"mg", true}, {"sp", true}, {"ft", false},
      {"is", false}, {"bt", true}, {"cg", false}};
  const auto i_t6_first = requests.size();
  for (const auto& [name, cavium_slower] : t6_cases) {
    cluster::RunRequest cavium;
    cavium.workload = name;
    cavium.config = {systems::thunderx_server(), 1, 32};
    cavium.options = scaled(0.2);
    add(std::move(cavium));
    add_tx1(name, net::NicKind::kTenGigabit, 16, 32, scaled(0.2));
  }

  // --- Figs 9-10 runs ---
  cluster::RunRequest scale_up;
  scale_up.workload = "googlenet";
  scale_up.config = {systems::xeon_gtx980(), 2, 16};
  scale_up.options = scaled(0.5);
  const auto i_ai_up = add(std::move(scale_up));
  const auto i_ai_out =
      add_tx1("googlenet", net::NicKind::kTenGigabit, 16, 64, scaled(0.5));

  // --- Figs 5-6 scenario replays ---
  cluster::RunRequest ft_replay =
      bench::tx1_request("ft", net::NicKind::kTenGigabit, 8, 16, scaled(0.3));
  cluster::RunRequest cg_replay =
      bench::tx1_request("cg", net::NicKind::kTenGigabit, 8, 16, scaled(0.3));

  sweep::SweepRunner runner(
      bench::sweep_options(argc, argv, "experiments_report"));
  const auto results = runner.run(requests);
  const auto replays = runner.replay_scenarios({ft_replay, cg_replay});

  auto speedup_of = [&](std::size_t slow_index) {
    return results[slow_index].seconds / results[slow_index + 1].seconds;
  };

  // --- §III-A network characterization ---
  {
    const net::NetworkModel fast(net::ten_gigabit_nic(), net::SwitchConfig{},
                                 7e9);
    const double gbps = net::measure_throughput(fast).gbit_per_second;
    check("§III-A", "TX1 drives the 10GbE card at ~3.3 Gb/s, not line rate",
          gbps > 2.8 && gbps < 4.0, TextTable::num(gbps, 2) + " Gb/s");
  }

  // --- Figure 1 ---
  {
    const double hpl = speedup_of(i_hpl);
    const double t3d = speedup_of(i_t3d);
    const double jac = speedup_of(i_jac);
    const double dnn = speedup_of(i_dnn);
    check("Fig 1", "hpl & tealeaf3d gain most from 10GbE",
          hpl > 1.25 && t3d > 1.4 && jac < 1.25 && hpl > jac && t3d > jac,
          "hpl " + TextTable::num(hpl, 2) + "x, tealeaf3d " +
              TextTable::num(t3d, 2) + "x, jacobi " + TextTable::num(jac, 2) +
              "x");
    check("Fig 1", "AI workloads are insensitive to the network",
          dnn > 0.99 && dnn < 1.01, TextTable::num(dnn, 3) + "x");
  }

  // --- Figure 3 ---
  {
    const double ratio = results[i_fig3_fast].stats.dram_bytes_per_second() /
                         results[i_fig3_slow].stats.dram_bytes_per_second();
    check("Fig 3", "10GbE roughly doubles tealeaf3d's DRAM rate (un-starved GPU)",
          ratio > 1.5, TextTable::num(ratio, 2) + "x DRAM rate");
  }

  // --- Table II ---
  {
    bool flips = true;
    std::string detail;
    for (auto [nic, index, expect] :
         {std::tuple{net::NicKind::kGigabit, i_t2_1g,
                     core::RooflineLimit::kNetwork},
          std::tuple{net::NicKind::kTenGigabit, i_t2_10g,
                     core::RooflineLimit::kOperational}}) {
      const auto m = core::measure_roofline(bench::tx1_roofline(nic),
                                            results[index].stats, 8, "hpl");
      flips &= m.limiting_intensity == expect;
      detail += std::string(bench::nic_name(nic)) + ":" +
                core::limit_name(m.limiting_intensity) + " ";
    }
    check("Table II", "hpl limit flips network -> operational with 10GbE",
          flips, detail);
  }

  // --- Figures 5-6 ---
  {
    const auto dft = core::decompose(replays[0]);
    const auto dcg = core::decompose(replays[1]);
    check("Figs 5-6", "ft is transfer-bound, cg is load-balance-bound",
          dft.transfer < dcg.transfer && dcg.load_balance < dft.load_balance,
          "ft Trf " + TextTable::num(dft.transfer, 2) + " / cg LB " +
              TextTable::num(dcg.load_balance, 2));
  }

  // --- Table III ---
  {
    const double base = results[i_t3_base].seconds;
    const double zratio = results[i_t3_zc].seconds / base;
    const double uratio = results[i_t3_um].seconds / base;
    check("Table III", "zero-copy ~2.5x slower; unified ~= host+device",
          zratio > 2.0 && zratio < 3.0 && uratio < 1.1,
          "zc " + TextTable::num(zratio, 2) + "x, um " +
              TextTable::num(uratio, 2) + "x");
  }

  // --- Fig 7 / Table IV ---
  {
    const double gain =
        results[i_t4_both].mflops_per_watt /
        std::max(results[i_t4_gpu].mflops_per_watt,
                 results[i_t4_cpu].mflops_per_watt);
    check("Table IV", "CPU+GPU colocation beats the best standalone config",
          gain > 1.1, TextTable::num(gain, 2) + "x efficiency");
  }

  // --- Table VI / Fig 8 ---
  {
    bool grouping = true;
    std::string detail;
    std::vector<core::BenchmarkObservation> obs;
    for (std::size_t c = 0; c < t6_cases.size(); ++c) {
      const auto& [name, cavium_slower] = t6_cases[c];
      const auto& a = results[i_t6_first + 2 * c];
      const auto& b = results[i_t6_first + 2 * c + 1];
      const double ratio = a.seconds / b.seconds;
      grouping &= cavium_slower ? ratio > 1.0 : ratio < 1.0;
      detail += std::string(name) + ":" + TextTable::num(ratio, 2) + " ";
      core::BenchmarkObservation o;
      o.name = name;
      o.system_a = a.counters;
      o.system_b = b.counters;
      o.runtime_a = a.seconds;
      o.runtime_b = b.seconds;
      obs.push_back(std::move(o));
    }
    check("Table VI", "cg/ft/is favor the ThunderX; bt/mg/sp favor the cluster",
          grouping, detail);

    const auto analysis = core::analyze_counters(obs);
    bool cache = false;
    bool branch = false;
    for (const std::string& v : analysis.top_variables) {
      cache |= v == "LD_MISS_RATIO" || v == "L2D_CACHE_REFILL";
      branch |= v == "BR_MIS_PRED" || v == "BR_MIS_RATIO" || v == "INST_SPEC";
    }
    check("Fig 8", "PLS points at the L2 and branch-prediction metrics",
          cache && branch,
          analysis.top_variables[0] + ", " + analysis.top_variables[1] +
              ", " + analysis.top_variables[2]);
  }

  // --- Figs 9-10 ---
  {
    const auto& up = results[i_ai_up];
    const auto& out = results[i_ai_out];
    check("Figs 9-10",
          "at equal SM count the SoC cluster wins AI on runtime AND energy",
          out.seconds < up.seconds && out.joules < up.joules,
          "runtime " + TextTable::num(out.seconds / up.seconds, 2) +
              "x, energy " + TextTable::num(out.joules / up.joules, 2) + "x");
  }

  // --- Print the report ---
  int passed = 0;
  std::printf("Reproduction status report (condensed problem sizes)\n\n");
  TextTable table({"artifact", "claim", "status", "measured"});
  for (const Claim& c : claims) {
    table.add_row({c.artifact, c.statement,
                   c.pass ? "PASS" : "DEVIATION", c.measured});
    passed += c.pass ? 1 : 0;
  }
  std::printf("%s\n%d/%zu claims reproduced\n", table.str().c_str(), passed,
              claims.size());
  return passed == static_cast<int>(claims.size()) ? 0 : 1;
}
