// Ablation (DESIGN.md §5.3): branch predictor family on the NPB branch
// streams.  Quantifies why the ThunderX's simple predictor loses on the
// pattern-heavy codes — and what a gshare or tournament predictor of the
// same size would recover.
#include <cstdio>

#include "bench_common.h"
#include "arch/branch.h"
#include "arch/streams.h"
#include "common/table.h"
#include "workloads/profiles.h"

int main(int argc, char** argv) {
  using namespace soc;
  bench::reject_arguments(argc, argv);
  struct Config {
    const char* label;
    arch::PredictorKind kind;
    std::size_t entries;
    int history;
  };
  const Config configs[] = {
      {"bimodal-1K (ThunderX-like)", arch::PredictorKind::kBimodal, 1024, 1},
      {"bimodal-4K", arch::PredictorKind::kBimodal, 4096, 1},
      {"gshare-4K", arch::PredictorKind::kGshare, 4096, 9},
      {"tournament-4K (A57-like)", arch::PredictorKind::kTournament, 4096, 9},
  };

  const struct {
    const char* tag;
    arch::WorkloadProfile profile;
  } profiles[] = {
      {"bt", workloads::profiles::npb_bt()},
      {"cg", workloads::profiles::npb_cg()},
      {"ep", workloads::profiles::npb_ep()},
      {"ft", workloads::profiles::npb_ft()},
      {"is", workloads::profiles::npb_is()},
      {"lu", workloads::profiles::npb_lu()},
      {"mg", workloads::profiles::npb_mg()},
      {"sp", workloads::profiles::npb_sp()},
  };

  TextTable table({"workload", "bimodal-1K", "bimodal-4K", "gshare-4K",
                   "tournament-4K"});
  for (const auto& p : profiles) {
    std::vector<std::string> row{p.tag};
    const auto stream = arch::generate_branch_stream(p.profile, 400'000);
    for (const Config& c : configs) {
      auto predictor = arch::make_predictor(c.kind, c.entries, c.history);
      for (const arch::BranchEvent& e : stream) {
        predictor->record(e.pc, e.taken);
      }
      row.push_back(TextTable::num(
          100.0 * predictor->stats().misprediction_ratio(), 2) + "%");
    }
    table.add_row(std::move(row));
  }
  std::printf(
      "Ablation: branch misprediction ratio by predictor family\n"
      "(mg's periodic level-boundary branches are where history-based\n"
      "prediction pays — the paper's ThunderX bottleneck)\n\n%s",
      table.str().c_str());
  return 0;
}
