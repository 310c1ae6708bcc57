// Pins the committed event stream of every registered workload under every
// scenario decorator family, and of its two Eq. 4 replays: ideal network
// (zero-duration transfers make the per-timestamp commit sort reorder
// records) and ideal balance (every op re-timed by its rank's scale).
// Option variants pin the generator
// branches the default options never take: overlapped halos, the
// zero-copy and unified memory models, hpl's 4-ranks-per-node splits, and
// small rank counts for the pipeline and multigrid patterns.  The engine's
// event order is simulated semantics (intrinsic (time, key) ordering,
// protocol messages for cross-node pairs, the CTS floor, per-destination
// switch-port pipes, the per-timestamp commit sort), so any change to it
// must show up here as a changed row.  A row may change only together
// with a DESIGN.md note that says why the stream moved; the failure
// message prints the measured row in table form.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "net/network.h"
#include "sim/op.h"
#include "systems/machines.h"
#include "trace/replay.h"
#include "workloads/scenario.h"
#include "workloads/workload.h"

namespace soc {
namespace {

constexpr int kNodes = 8;
constexpr double kScale = 0.05;

struct PinnedStream {
  const char* workload;
  const char* variant;
  const char* scenario;
  std::uint64_t checksum;
  std::uint64_t events;
  SimTime makespan;
};

// clang-format off
const PinnedStream kPinned[] = {
    {"hpl", "default", "none", 0x3129206c4813e61cULL, 1452, 15488913815},
    {"hpl", "default", "fault", 0x58ea4adbe4577472ULL, 1453, 31022640928},
    {"hpl", "default", "noise", 0xbde7fa225e763752ULL, 2853, 15611808981},
    {"hpl", "default", "checkpoint", 0xe73dc4922b9e1ec1ULL, 1564, 15768913815},
    {"hpl", "default", "ideal-network", 0x5bddb95dea5f3e5eULL, 1452, 10957965280},
    {"hpl", "default", "ideal-balance", 0x9c9c7042c0c9a92fULL, 1452, 15358574419},
    {"jacobi", "default", "none", 0x361534a1e70db2ddULL, 86888, 4053344824},
    {"jacobi", "default", "fault", 0xb984ec7bd0e97184ULL, 86890, 8914369169},
    {"jacobi", "default", "noise", 0x051a0c66b5546782ULL, 102854, 5982904050},
    {"jacobi", "default", "checkpoint", 0x979e1ce0198550daULL, 86912, 4113344824},
    {"jacobi", "default", "ideal-network", 0x0ab3db9497f57eafULL, 86888, 3285584700},
    {"jacobi", "default", "ideal-balance", 0xce95499fa7891d61ULL, 86888, 4016340202},
    {"cloverleaf", "default", "none", 0x72226a76f4fd5bfdULL, 122408, 23841106019},
    {"cloverleaf", "default", "fault", 0xe9e0bdd86d54e06eULL, 122409, 58579405019},
    {"cloverleaf", "default", "noise", 0xf44f5d1a3b3101adULL, 170923, 27915160502},
    {"cloverleaf", "default", "checkpoint", 0xbc31055351cef9e8ULL, 122584, 24281106019},
    {"cloverleaf", "default", "ideal-network", 0x7614153a07b56b55ULL, 122408, 23194889000},
    {"cloverleaf", "default", "ideal-balance", 0xc8528b13905d9a04ULL, 122408, 23833972084},
    {"tealeaf2d", "default", "none", 0xcf306e89f32b0803ULL, 394088, 8236305600},
    {"tealeaf2d", "default", "fault", 0xa772f37f1a06b48eULL, 394090, 16390410729},
    {"tealeaf2d", "default", "noise", 0xeda9508bdf305f6dULL, 433935, 14933451895},
    {"tealeaf2d", "default", "checkpoint", 0xfd310aba44e25dd3ULL, 394144, 8376305600},
    {"tealeaf2d", "default", "ideal-network", 0xc1c4d61f681f9b05ULL, 394088, 5821356000},
    {"tealeaf2d", "default", "ideal-balance", 0x22b032da62681866ULL, 394088, 8031527732},
    {"tealeaf3d", "default", "none", 0x9c1ee96ed2f403b0ULL, 394088, 12225614219},
    {"tealeaf3d", "default", "fault", 0xa2a9a1c0f0b84e1fULL, 394090, 20153042236},
    {"tealeaf3d", "default", "noise", 0x252bad478b071b5bULL, 448261, 20311205980},
    {"tealeaf3d", "default", "checkpoint", 0x55a538fae8106e99ULL, 394176, 12605339124},
    {"tealeaf3d", "default", "ideal-network", 0x3a45f250990f53ccULL, 394088, 6353896800},
    {"tealeaf3d", "default", "ideal-balance", 0xcd1358b257232e77ULL, 394088, 11866310802},
    {"alexnet", "default", "none", 0xf7ec4624cb37118dULL, 388, 853882111},
    {"alexnet", "default", "fault", 0x92cdd4b527a78105ULL, 389, 2134705282},
    {"alexnet", "default", "noise", 0x14babda65c1f5825ULL, 773, 879882111},
    {"alexnet", "default", "checkpoint", 0xf7ec4624cb37118dULL, 388, 853882111},
    {"alexnet", "default", "ideal-network", 0xf7ec4624cb37118dULL, 388, 853882111},
    {"alexnet", "default", "ideal-balance", 0x519f2f427abdc11aULL, 388, 837917748},
    {"googlenet", "default", "none", 0xf6fd7770fbc01c2fULL, 1188, 1093452407},
    {"googlenet", "default", "fault", 0xa5d89e493cbab8e3ULL, 1189, 2733631049},
    {"googlenet", "default", "noise", 0xcc98d2de0f7df338ULL, 1836, 1136452407},
    {"googlenet", "default", "checkpoint", 0xd480c5b5a201ef44ULL, 1195, 1113452407},
    {"googlenet", "default", "ideal-network", 0xf6fd7770fbc01c2fULL, 1188, 1093452407},
    {"googlenet", "default", "ideal-balance", 0xb8476a8672a9cff8ULL, 1188, 1072472463},
    {"bt", "default", "none", 0xf28c924f5349b2fcULL, 22864, 6795146892},
    {"bt", "default", "fault", 0xbfa9dc56b2ab188eULL, 22866, 15550240558},
    {"bt", "default", "noise", 0x242eb0ad902b51f2ULL, 29479, 7140052931},
    {"bt", "default", "checkpoint", 0x8cb166b58d0a4135ULL, 22960, 6915146892},
    {"bt", "default", "ideal-network", 0x3ef1cb60c7bca72bULL, 22864, 6711658000},
    {"bt", "default", "ideal-balance", 0x11e53391c3afe440ULL, 22864, 6494388240},
    {"cg", "default", "none", 0x20a6ed066055786bULL, 753152, 7472372123},
    {"cg", "default", "fault", 0xb9439cafc8120ed2ULL, 753156, 12508813234},
    {"cg", "default", "noise", 0x699df5f0ce2e5545ULL, 838745, 16129595368},
    {"cg", "default", "checkpoint", 0x8d444a311fb6ebdaULL, 753248, 7672032688},
    {"cg", "default", "ideal-network", 0x4222fe2bd8ae2d57ULL, 753152, 5859049750},
    {"cg", "default", "ideal-balance", 0x43c1538d85dbb811ULL, 753152, 6579394494},
    {"ep", "default", "none", 0x334594edae2659bfULL, 432, 16233441876},
    {"ep", "default", "fault", 0xdd3bd55182387267ULL, 434, 39814017598},
    {"ep", "default", "noise", 0x136fe10a7f9a4b75ULL, 768, 16244441876},
    {"ep", "default", "checkpoint", 0x0d64281781f84030ULL, 672, 16613441693},
    {"ep", "default", "ideal-network", 0xcd2e5ed40f2d58e9ULL, 432, 16233163712},
    {"ep", "default", "ideal-balance", 0x9b6aa39c2e60f78eULL, 432, 15922071305},
    {"ft", "default", "none", 0x3cbad1641c29856bULL, 10096, 10013319438},
    {"ft", "default", "fault", 0x3aa3d00fce3609e2ULL, 10098, 22298653058},
    {"ft", "default", "noise", 0x50d840ab0074545cULL, 18974, 10368196011},
    {"ft", "default", "checkpoint", 0xe23b716535ec6ea5ULL, 10240, 10212069449},
    {"ft", "default", "ideal-network", 0x913bea707ef2eebeULL, 10096, 8507700980},
    {"ft", "default", "ideal-balance", 0x2ef3e4a6548e15e9ULL, 10096, 9774436738},
    {"is", "default", "none", 0xd9197335ba574dabULL, 5120, 2227248176},
    {"is", "default", "fault", 0x5598fe253e6324feULL, 5122, 4774335888},
    {"is", "default", "noise", 0xf58eb13874cde2c2ULL, 7139, 2345916213},
    {"is", "default", "checkpoint", 0xb7387cf692c0ca26ULL, 5152, 2307248176},
    {"is", "default", "ideal-network", 0x95d40daa927ee56eULL, 5120, 2036843950},
    {"is", "default", "ideal-balance", 0x6943137f6114b21fULL, 5120, 2084491828},
    {"lu", "default", "none", 0xab43ad2ae3988363ULL, 31544, 13014573619},
    {"lu", "default", "fault", 0xaa4db9b622b6753eULL, 31546, 18109909152},
    {"lu", "default", "noise", 0x5d6b9c3a31b0956aULL, 51103, 18194121481},
    {"lu", "default", "checkpoint", 0xa3c19eb9060055f9ULL, 31752, 14936019510},
    {"lu", "default", "ideal-network", 0xa693fc8015acacf7ULL, 31544, 12786479198},
    {"lu", "default", "ideal-balance", 0xa6be07b46f504126ULL, 31544, 13462819869},
    {"mg", "default", "none", 0x729b3504e7721529ULL, 24240, 4309085647},
    {"mg", "default", "fault", 0xd2e52f70eac49e6fULL, 24242, 10032990228},
    {"mg", "default", "noise", 0x2074f7c0c2227d21ULL, 28625, 4637787767},
    {"mg", "default", "checkpoint", 0xfefa5acb99b82aa9ULL, 24288, 4369085647},
    {"mg", "default", "ideal-network", 0x879ce5ca6512cbd8ULL, 24240, 4248254260},
    {"mg", "default", "ideal-balance", 0x70470dd73db2c129ULL, 24240, 3941465049},
    {"sp", "default", "none", 0xf657a505dfee7c18ULL, 45584, 7350327310},
    {"sp", "default", "fault", 0x799f63e4f6c0185bULL, 45586, 17377244958},
    {"sp", "default", "noise", 0xecbf6f3bca394dfcULL, 57420, 8017451188},
    {"sp", "default", "checkpoint", 0x5c6d1e33ef7a5575ULL, 45680, 7489706570},
    {"sp", "default", "ideal-network", 0x14758faf46b908e7ULL, 45584, 7196794400},
    {"sp", "default", "ideal-balance", 0xff4e42667389a779ULL, 45584, 7077938246},
    {"jacobi", "overlap-halos", "none", 0xc8a45cbee166dca3ULL, 86888, 3282368938},
    {"tealeaf2d", "overlap-halos", "none", 0x605e6d33cdf2e3f7ULL, 374888, 7353439200},
    {"jacobi", "zero-copy", "none", 0xaf020a395a24a701ULL, 62888, 8585868601},
    {"cloverleaf", "zero-copy", "none", 0xc4175be7bc211713ULL, 106408, 26594343519},
    {"tealeaf3d", "zero-copy", "none", 0x07d153f1d13420deULL, 336488, 17760628619},
    {"jacobi", "unified", "none", 0x25e055a2514859c1ULL, 62888, 4129215412},
    {"cloverleaf", "unified", "none", 0xbd4f412d33c353ebULL, 106408, 23552681019},
    {"tealeaf3d", "unified", "none", 0xb88dc19302651b62ULL, 336488, 11772647819},
    {"hpl", "4rpn-gpu0.5", "none", 0x437ce9626d103f2cULL, 4668, 12744980073},
    {"hpl", "4rpn-gpu0", "none", 0x7e32acf646b9119cULL, 4516, 15242789564},
    {"lu", "2-nodes", "none", 0x3bd693f19b043a19ULL, 7120, 42936191410},
    {"mg", "2-nodes", "none", 0x011225495ada3aeeULL, 5084, 15987386131},
};
// clang-format on

/// One run shape.  "default" runs every workload at its natural ranks
/// under every scenario; each other variant pins one option branch of one
/// generator under the "none" scenario.
struct Variant {
  const char* name;
  const char* workload;  ///< nullptr: every registered workload.
  int nodes;
  int ranks_per_node;  ///< 0: 1 for GPU workloads, 2 otherwise.
  cluster::RunOptions options;
};

std::vector<Variant> variant_axis() {
  cluster::RunOptions base;
  base.size_scale = kScale;
  std::vector<Variant> axis;
  axis.push_back({"default", nullptr, kNodes, 0, base});
  cluster::RunOptions overlap = base;
  overlap.overlap_halos = true;
  for (const char* w : {"jacobi", "tealeaf2d"}) {
    axis.push_back({"overlap-halos", w, kNodes, 0, overlap});
  }
  const std::pair<const char*, sim::MemModel> models[] = {
      {"zero-copy", sim::MemModel::kZeroCopy},
      {"unified", sim::MemModel::kUnified}};
  for (const auto& [label, model] : models) {
    cluster::RunOptions options = base;
    options.mem_model = model;
    for (const char* w : {"jacobi", "cloverleaf", "tealeaf3d"}) {
      axis.push_back({label, w, kNodes, 0, options});
    }
  }
  // 4 ranks per node: the colocated GPU+CPU split, and CPU only.
  const std::pair<const char*, double> splits[] = {{"4rpn-gpu0.5", 0.5},
                                                   {"4rpn-gpu0", 0.0}};
  for (const auto& [label, fraction] : splits) {
    cluster::RunOptions options = base;
    options.gpu_work_fraction = fraction;
    axis.push_back({label, "hpl", kNodes, 4, options});
  }
  for (const char* w : {"lu", "mg"}) {
    axis.push_back({"2-nodes", w, 2, 0, base});
  }
  return axis;
}

struct NamedScenario {
  const char* name;
  workloads::ScenarioConfig config;
  /// Pin the two Eq. 4 replays of the measured run instead: one
  /// cluster::replay_scenarios call yields the "ideal-network" and
  /// "ideal-balance" rows.
  bool replays = false;
};

/// One representative per decorator family, with event times early
/// enough to fire at kScale run lengths, plus the Eq. 4 replays.
std::vector<NamedScenario> scenario_axis() {
  std::vector<NamedScenario> axis;
  axis.push_back({"none", {}});
  axis.push_back(
      {"fault",
       workloads::parse_scenario(
           "straggler:rank=1,slowdown=2.5;node-crash:node=2,t=0.002,down=0.003;"
           "link-flap:node=5,t0=0.001,t1=0.004",
           "", "")});
  axis.push_back(
      {"noise", workloads::parse_scenario(
                    "", "interval=0.003,duration=0.0005,seed=7,jitter=0.25",
                    "")});
  axis.push_back({"checkpoint",
                  workloads::parse_scenario("", "",
                                            "daly:size=1e8,bw=5e9,mtti=30")});
  axis.push_back({"replays", {}, true});
  return axis;
}

const PinnedStream* find_pinned(const std::string& workload,
                                const std::string& variant,
                                const std::string& scenario) {
  for (const PinnedStream& p : kPinned) {
    if (workload == p.workload && variant == p.variant &&
        scenario == p.scenario) {
      return &p;
    }
  }
  return nullptr;
}

/// The row as it would appear in kPinned, so a deliberate re-record is a
/// copy from the failure message.
std::string table_row(const std::string& workload, const std::string& variant,
                      const std::string& scenario, const sim::RunStats& stats) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", \"%s\", \"%s\", 0x%016" PRIx64 "ULL, %" PRIu64
                ", %" PRId64 "},",
                workload.c_str(), variant.c_str(), scenario.c_str(),
                stats.event_checksum,
                static_cast<std::uint64_t>(stats.events_committed),
                static_cast<std::int64_t>(stats.makespan));
  return buf;
}

TEST(StreamPin, EveryWorkloadAndScenarioMatchesRecordedTable) {
  const auto scenarios = scenario_axis();
  const auto node = systems::jetson_tx1(net::NicKind::kTenGigabit);
  std::size_t checked = 0;
  for (const Variant& v : variant_axis()) {
    for (const std::string& name : workloads::list()) {
      if (v.workload != nullptr && name != v.workload) continue;
      const auto w = workloads::make_workload(name);
      const int rpn =
          v.ranks_per_node > 0 ? v.ranks_per_node
                               : (w->gpu_accelerated() ? 1 : 2);
      for (const NamedScenario& s : scenarios) {
        if (v.workload != nullptr && std::string(s.name) != "none") continue;
        cluster::RunRequest request;
        request.workload = name;
        request.workload_ref = w.get();
        request.config = cluster::ClusterConfig{node, v.nodes, rpn * v.nodes};
        request.options = v.options;
        request.scenario = s.config;
        std::vector<std::pair<const char*, sim::RunStats>> rows;
        if (s.replays) {
          trace::ScenarioRuns runs = cluster::replay_scenarios(request);
          rows.emplace_back("ideal-network", std::move(runs.ideal_network));
          rows.emplace_back("ideal-balance", std::move(runs.ideal_balance));
        } else {
          rows.emplace_back(s.name, cluster::run(request).stats);
        }
        for (const auto& [scenario, stats] : rows) {
          const std::string row = table_row(name, v.name, scenario, stats);
          const PinnedStream* pinned = find_pinned(name, v.name, scenario);
          if (pinned == nullptr) {
            ADD_FAILURE() << "no pinned row; measured:\n  " << row;
            continue;
          }
          EXPECT_EQ(stats.event_checksum, pinned->checksum) << row;
          EXPECT_EQ(stats.events_committed, pinned->events) << row;
          EXPECT_EQ(stats.makespan, pinned->makespan) << row;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kPinned));
}

}  // namespace
}  // namespace soc
