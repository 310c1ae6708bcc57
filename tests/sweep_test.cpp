// Tests for sweep/: grid enumeration, the parallel sweep runner's
// determinism contract (thread count changes wall-clock, never results),
// cost-model memoization and the characterizations live models share, the
// sweep report document, and the workload registry the grids enumerate
// from.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <latch>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arch/core_model.h"
#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "common/error.h"
#include "common/parallel.h"
#include "net/network.h"
#include "sweep/frontier.h"
#include "sweep/grid.h"
#include "sweep/sweep.h"
#include "systems/machines.h"
#include "workloads/workload.h"

namespace soc {
namespace {

cluster::RunRequest quick_request(const std::string& workload, int nodes,
                                  int ranks, double scale = 0.05) {
  cluster::RunRequest request;
  request.workload = workload;
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
                    ranks};
  request.options.size_scale = scale;
  return request;
}

/// A small but heterogeneous batch: two workloads, two shapes, and two
/// requests sharing one (node, shape, profile) cost-model key.
std::vector<cluster::RunRequest> mixed_batch() {
  std::vector<cluster::RunRequest> requests;
  requests.push_back(quick_request("jacobi", 2, 2));
  requests.push_back(quick_request("hpl", 2, 2));
  requests.push_back(quick_request("jacobi", 4, 4));
  cluster::RunRequest again = quick_request("jacobi", 2, 2);
  again.options.size_scale = 0.1;  // same cost key, different problem size
  requests.push_back(std::move(again));
  return requests;
}

void expect_identical(const std::vector<cluster::RunResult>& a,
                      const std::vector<cluster::RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stats.event_checksum, b[i].stats.event_checksum) << i;
    EXPECT_DOUBLE_EQ(a[i].seconds, b[i].seconds) << i;
    EXPECT_DOUBLE_EQ(a[i].gflops, b[i].gflops) << i;
    EXPECT_DOUBLE_EQ(a[i].joules, b[i].joules) << i;
    EXPECT_DOUBLE_EQ(a[i].mflops_per_watt, b[i].mflops_per_watt) << i;
  }
}

// --- effective_threads policy --------------------------------------------

TEST(Parallel, EffectiveThreadsPolicy) {
  EXPECT_EQ(effective_threads(4, 100), 4u);
  EXPECT_EQ(effective_threads(8, 3), 3u);   // capped at the work count
  EXPECT_EQ(effective_threads(0, 0), 0u);   // no work, no threads
  EXPECT_EQ(effective_threads(5, 0), 0u);
  EXPECT_GE(effective_threads(0, 100), 1u);  // 0 resolves to usable CPUs
  EXPECT_EQ(effective_threads(1, 100), 1u);
}

// --- SweepRunner determinism ---------------------------------------------

TEST(SweepRunner, ThreadCountNeverChangesResults) {
  const auto requests = mixed_batch();

  sweep::SweepRunner serial(sweep::SweepOptions{.threads = 1});
  sweep::SweepRunner threaded(sweep::SweepOptions{.threads = 4});
  const auto a = serial.run(requests);
  const auto b = threaded.run(requests);
  expect_identical(a, b);

  // The whole report document — not just the numbers — is byte-identical.
  EXPECT_EQ(
      sweep::sweep_report_json("t", requests, a, serial.summary()),
      sweep::sweep_report_json("t", requests, b, threaded.summary()));
}

TEST(SweepRunner, MatchesDirectClusterRun) {
  const auto requests = mixed_batch();
  sweep::SweepRunner runner(sweep::SweepOptions{.threads = 4});
  const auto swept = runner.run(requests);

  std::vector<cluster::RunResult> direct;
  for (const auto& request : requests) direct.push_back(cluster::run(request));
  expect_identical(swept, direct);
}

TEST(SweepRunner, EmptyBatch) {
  sweep::SweepRunner runner;
  EXPECT_TRUE(runner.run({}).empty());
  EXPECT_TRUE(runner.replay_scenarios({}).empty());
  EXPECT_EQ(runner.summary().runs, 0u);
  EXPECT_EQ(runner.summary().cost_models_built, 0u);
}

TEST(SweepRunner, SingleRequest) {
  sweep::SweepRunner runner(sweep::SweepOptions{.threads = 4});
  const auto results = runner.run({quick_request("jacobi", 2, 2)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].seconds, 0.0);
  EXPECT_EQ(runner.summary().runs, 1u);
  EXPECT_EQ(runner.summary().threads, 1u);  // fan-out capped at one request
}

TEST(SweepRunner, MoreThreadsThanRequests) {
  const std::vector<cluster::RunRequest> requests = {
      quick_request("jacobi", 2, 2), quick_request("hpl", 2, 2)};
  sweep::SweepRunner wide(sweep::SweepOptions{.threads = 16});
  sweep::SweepRunner serial(sweep::SweepOptions{.threads = 1});
  expect_identical(wide.run(requests), serial.run(requests));
  EXPECT_EQ(wide.summary().threads, 2u);
}

TEST(SweepRunner, ReplayScenariosDeterministic) {
  const std::vector<cluster::RunRequest> requests = {
      quick_request("ft", 2, 4), quick_request("cg", 2, 4)};
  sweep::SweepRunner serial(sweep::SweepOptions{.threads = 1});
  sweep::SweepRunner threaded(sweep::SweepOptions{.threads = 4});
  const auto a = serial.replay_scenarios(requests);
  const auto b = threaded.replay_scenarios(requests);
  ASSERT_EQ(a.size(), requests.size());
  ASSERT_EQ(b.size(), requests.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].measured.seconds(), b[i].measured.seconds()) << i;
    EXPECT_DOUBLE_EQ(a[i].ideal_network.seconds(),
                     b[i].ideal_network.seconds())
        << i;
    EXPECT_DOUBLE_EQ(a[i].ideal_balance.seconds(),
                     b[i].ideal_balance.seconds())
        << i;
  }
  EXPECT_EQ(serial.summary().replays, requests.size());
}

TEST(SweepRunner, ThrowsOnBadRequestAfterJoin) {
  std::vector<cluster::RunRequest> requests = {quick_request("jacobi", 2, 2)};
  requests.push_back(quick_request("jacobi", 4, 2));  // ranks % nodes != 0
  sweep::SweepRunner runner(sweep::SweepOptions{.threads = 2});
  EXPECT_THROW(runner.run(requests), Error);
}

// --- Cost-model memoization ----------------------------------------------

TEST(SweepRunner, MemoizesCostModelsByValue) {
  const auto requests = mixed_batch();  // 4 runs, 3 distinct cost keys
  sweep::SweepRunner runner(sweep::SweepOptions{.threads = 4});
  runner.run(requests);
  EXPECT_EQ(runner.summary().cost_models_built, 3u);
  EXPECT_EQ(runner.summary().cost_model_hits, 1u);
}

TEST(SweepRunner, MutatedNodeConfigMissesCache) {
  // DVFS-style sweeps mutate the node config; value equality must keep
  // the mutated request out of the unmutated request's cache slot.
  std::vector<cluster::RunRequest> requests = {quick_request("jacobi", 2, 2)};
  cluster::RunRequest turbo = quick_request("jacobi", 2, 2);
  turbo.config.node.core.frequency_hz *= 1.2;
  requests.push_back(std::move(turbo));
  sweep::SweepRunner runner;
  const auto results = runner.run(requests);
  EXPECT_EQ(runner.summary().cost_models_built, 2u);
  EXPECT_EQ(runner.summary().cost_model_hits, 0u);
  EXPECT_LT(results[1].seconds, results[0].seconds);  // faster clock
}

// --- Characterization sharing --------------------------------------------

void expect_bit_identical(const arch::Characterization& a,
                          const arch::Characterization& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(bits(a.cpi), bits(b.cpi));
  EXPECT_EQ(bits(a.branch_misprediction_ratio),
            bits(b.branch_misprediction_ratio));
  EXPECT_EQ(bits(a.l1d_miss_ratio), bits(b.l1d_miss_ratio));
  EXPECT_EQ(bits(a.l2d_miss_ratio), bits(b.l2d_miss_ratio));
  EXPECT_EQ(bits(a.dtlb_miss_ratio), bits(b.dtlb_miss_ratio));
  EXPECT_EQ(bits(a.dram_bytes_per_instruction),
            bits(b.dram_bytes_per_instruction));
  for (std::size_t e = 0; e < arch::kPmuEventCount; ++e) {
    const auto event = static_cast<arch::PmuEvent>(e);
    EXPECT_EQ(bits(a.per_instruction[event]), bits(b.per_instruction[event]))
        << arch::pmu_event_name(event);
  }
}

TEST(CharacterizationSharing, SweepGridModelsShareThirteen) {
  // perfbench's sweep-grid, the paper's network study: every workload on
  // 2-16 nodes at 1 and 10 GbE.  Its 120 requests have 104 distinct
  // cost-model keys (tealeaf2d/3d and alexnet/googlenet share a profile)
  // but only 13 (core, profile) pairs: each workload runs at one ranks
  // per node, and the two NICs share the core.
  sweep::Grid grid;
  grid.workloads = workloads::list();
  grid.nodes = {2, 4, 8, 16};
  grid.nics = {net::NicKind::kGigabit, net::NicKind::kTenGigabit};
  const std::vector<cluster::RunRequest> requests = grid.requests();
  ASSERT_EQ(requests.size(), 120u);

  struct Key {
    systems::NodeConfig node;
    int nodes = 0;
    int ranks = 0;
    arch::WorkloadProfile profile;
    bool operator==(const Key&) const = default;
  };
  std::vector<Key> keys;
  std::vector<std::unique_ptr<cluster::ClusterCostModel>> models;
  for (const cluster::RunRequest& request : requests) {
    Key key{request.config.node, request.config.nodes, request.config.ranks,
            workloads::make_workload(request.workload)->cpu_profile()};
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    models.push_back(std::make_unique<cluster::ClusterCostModel>(
        key.node, key.nodes, key.ranks, key.profile));
    keys.push_back(std::move(key));
  }
  EXPECT_EQ(models.size(), 104u);
  std::set<const arch::Characterization*> distinct;
  for (const auto& model : models) distinct.insert(&model->characterization());
  EXPECT_EQ(distinct.size(), 13u);
}

TEST(CharacterizationSharing, ConcurrentBuildsOfOneKeyShareOne) {
  const systems::NodeConfig node =
      systems::jetson_tx1(net::NicKind::kTenGigabit);
  const arch::WorkloadProfile profile =
      workloads::make_workload("cg")->cpu_profile();
  constexpr int kThreads = 4;
  std::vector<std::optional<cluster::ClusterCostModel>> models(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      models[static_cast<std::size_t>(i)].emplace(node, 2, 4, profile);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& model : models) {
    EXPECT_EQ(&model->characterization(), &models[0]->characterization());
  }
}

TEST(CharacterizationSharing, OtherCoreOrContentionGetsItsOwn) {
  const systems::NodeConfig node =
      systems::jetson_tx1(net::NicKind::kTenGigabit);
  const arch::WorkloadProfile profile =
      workloads::make_workload("jacobi")->cpu_profile();
  const cluster::ClusterCostModel base(node, 2, 2, profile);

  // Another NIC and another node count at one rank per node: same key.
  const cluster::ClusterCostModel gigabit(
      systems::jetson_tx1(net::NicKind::kGigabit), 8, 8, profile);
  EXPECT_EQ(&gigabit.characterization(), &base.characterization());

  const cluster::ClusterCostModel dvfs(systems::with_dvfs(node, 0.8), 2, 2,
                                       profile);
  EXPECT_NE(&dvfs.characterization(), &base.characterization());

  // Two ranks per node share the TX1's L2: contention 2 instead of 1.
  ASSERT_NE(cluster::l2_contention_for(node, 2, 4),
            cluster::l2_contention_for(node, 2, 2));
  const cluster::ClusterCostModel crowded(node, 2, 4, profile);
  EXPECT_NE(&crowded.characterization(), &base.characterization());
  EXPECT_GT(crowded.characterization().cpi, base.characterization().cpi);
}

TEST(CharacterizationSharing, RebuiltAfterLastModelIsBitIdentical) {
  const systems::NodeConfig node =
      systems::jetson_tx1(net::NicKind::kTenGigabit);
  const arch::WorkloadProfile profile =
      workloads::make_workload("ep")->cpu_profile();
  arch::Characterization before;
  {
    const cluster::ClusterCostModel a(node, 2, 4, profile);
    const cluster::ClusterCostModel b(node, 4, 8, profile);
    ASSERT_EQ(&a.characterization(), &b.characterization());
    before = a.characterization();
  }
  const cluster::ClusterCostModel again(node, 2, 4, profile);
  expect_bit_identical(again.characterization(), before);
}

// --- Grid enumeration ----------------------------------------------------

TEST(Grid, SizeAndIndexRowMajor) {
  sweep::Grid grid;
  grid.workloads = {"jacobi", "hpl"};
  grid.nodes = {2, 4};
  grid.nics = {net::NicKind::kGigabit, net::NicKind::kTenGigabit};
  EXPECT_EQ(grid.size(), 8u);
  // Workloads outermost, then nodes, then NICs.
  EXPECT_EQ(grid.index(0, 0, 0), 0u);
  EXPECT_EQ(grid.index(0, 0, 1), 1u);
  EXPECT_EQ(grid.index(0, 1, 0), 2u);
  EXPECT_EQ(grid.index(1, 0, 0), 4u);
  EXPECT_EQ(grid.index(1, 1, 1), 7u);

  const auto requests = grid.requests();
  ASSERT_EQ(requests.size(), grid.size());
  EXPECT_EQ(requests[0].workload, "jacobi");
  EXPECT_EQ(requests[4].workload, "hpl");
  EXPECT_EQ(requests[2].config.nodes, 4);
  // NIC axis flips the node config's NIC bandwidth.
  EXPECT_LT(requests[0].config.node.nic.effective_bandwidth,
            requests[1].config.node.nic.effective_bandwidth);
}

TEST(Grid, EmptyOptionAxesInheritFromBase) {
  sweep::Grid grid;
  grid.workloads = {"jacobi"};
  grid.nodes = {2};
  grid.base.size_scale = 0.25;
  grid.base.mem_model = sim::MemModel::kZeroCopy;
  const auto requests = grid.requests();
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_DOUBLE_EQ(requests[0].options.size_scale, 0.25);
  EXPECT_EQ(requests[0].options.mem_model, sim::MemModel::kZeroCopy);
}

TEST(Grid, OptionAxesOverrideBase) {
  sweep::Grid grid;
  grid.workloads = {"jacobi"};
  grid.nodes = {2};
  grid.base.gpu_work_fraction = 0.25;
  grid.gpu_fractions = {1.0, 0.5};
  grid.dvfs = {0.8, 1.2};
  EXPECT_EQ(grid.size(), 4u);
  const auto requests = grid.requests();
  const systems::NodeConfig tx1 =
      systems::jetson_tx1(net::NicKind::kTenGigabit);
  for (std::size_t f = 0; f < grid.gpu_fractions.size(); ++f) {
    for (std::size_t d = 0; d < grid.dvfs.size(); ++d) {
      const cluster::RunRequest& r = requests[grid.index(0, 0, 0, 0, f, d)];
      EXPECT_DOUBLE_EQ(r.options.gpu_work_fraction, grid.gpu_fractions[f]);
      EXPECT_EQ(r.config.node, systems::with_dvfs(tx1, grid.dvfs[d]));
    }
  }
}

TEST(Grid, DvfsAxisReclocksInnermost) {
  sweep::Grid grid;
  grid.workloads = {"jacobi", "hpl"};
  grid.nodes = {2, 4};
  grid.nics = {net::NicKind::kGigabit, net::NicKind::kTenGigabit};
  grid.dvfs = {0.6, 0.8, 1.2};
  ASSERT_EQ(grid.size(), 24u);
  // The clock varies fastest, then the NIC.
  EXPECT_EQ(grid.index(0, 0, 0, 0, 0, 1), 1u);
  EXPECT_EQ(grid.index(0, 0, 1, 0, 0, 0), 3u);
  const auto requests = grid.requests();
  ASSERT_EQ(requests.size(), grid.size());
  for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
    for (std::size_t n = 0; n < grid.nodes.size(); ++n) {
      for (std::size_t c = 0; c < grid.nics.size(); ++c) {
        for (std::size_t d = 0; d < grid.dvfs.size(); ++d) {
          const cluster::RunRequest& r = requests[grid.index(w, n, c, 0, 0, d)];
          EXPECT_EQ(r.workload, grid.workloads[w]);
          EXPECT_EQ(r.config.nodes, grid.nodes[n]);
          EXPECT_EQ(r.config.node,
                    systems::with_dvfs(systems::jetson_tx1(grid.nics[c]),
                                       grid.dvfs[d]));
        }
      }
    }
  }

  // An empty clock axis leaves each NIC's node as built.
  grid.dvfs.clear();
  const auto built = grid.requests();
  ASSERT_EQ(built.size(), 8u);
  for (std::size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(built[i].config.node, systems::jetson_tx1(grid.nics[i % 2]));
  }
}

TEST(Grid, EmptyWorkloadsEnumeratesNothing) {
  sweep::Grid grid;
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_TRUE(grid.requests().empty());
}

TEST(Grid, IndexRangeChecked) {
  sweep::Grid grid;
  grid.workloads = {"jacobi"};
  EXPECT_THROW(grid.index(1, 0), Error);
  EXPECT_THROW(grid.index(0, 1), Error);
  EXPECT_THROW(grid.index(0, 0, 0, 1), Error);  // empty mem axis: must be 0
  EXPECT_THROW(grid.index(0, 0, 0, 0, 0, 1), Error);  // empty clock axis
}

TEST(Grid, NaturalRanksPerWorkloadClass) {
  const auto gpu = workloads::make_workload("jacobi");
  const auto npb = workloads::make_workload("cg");
  const auto dnn = workloads::make_workload("alexnet");
  EXPECT_EQ(sweep::natural_ranks(*gpu, 8), 8);
  EXPECT_EQ(sweep::natural_ranks(*npb, 8), 16);
  EXPECT_EQ(sweep::natural_ranks(*dnn, 8), 32);
}

// --- Workload registry ---------------------------------------------------

TEST(Registry, ListIsStableAndComplete) {
  const auto& tags = workloads::list();
  EXPECT_EQ(tags.size(), 15u);
  EXPECT_TRUE(std::is_sorted(tags.begin(), tags.end()) ||
              std::find(tags.begin(), tags.end(), "hpl") != tags.end());
  for (const std::string& tag : tags) {
    const auto w = workloads::make_workload(tag);
    ASSERT_NE(w, nullptr) << tag;
    EXPECT_EQ(w->name(), tag);
  }
}

TEST(Registry, UnknownTagErrorNamesTheValidTags) {
  try {
    workloads::make_workload("bogus");
    FAIL() << "expected soc::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    // The message teaches the valid spellings.
    for (const char* tag : {"hpl", "jacobi", "alexnet", "cg"}) {
      EXPECT_NE(what.find(tag), std::string::npos) << tag;
    }
  }
}

// --- Energy frontier ------------------------------------------------------

sweep::Grid small_frontier() {
  sweep::Grid grid;
  grid.workloads = {"jacobi", "hpl"};
  grid.nodes = {2, 4};
  grid.gpu_fractions = {1.0};
  grid.dvfs = {0.8, 1.0};
  grid.base.size_scale = 0.05;
  return grid;
}

TEST(Frontier, GridEnumeratesRowMajor) {
  const sweep::Grid grid = small_frontier();
  EXPECT_EQ(grid.size(), 8u);
  const auto requests = grid.requests();
  ASSERT_EQ(requests.size(), grid.size());
  // Workloads outermost, dvfs innermost.
  EXPECT_EQ(requests[0].workload, "jacobi");
  EXPECT_EQ(requests[4].workload, "hpl");
  EXPECT_EQ(requests[2].config.nodes, 4);
  // The DVFS axis re-clocks the node config.
  EXPECT_LT(requests[0].config.node.core.frequency_hz,
            requests[1].config.node.core.frequency_hz);
}

TEST(Frontier, ArtifactByteIdenticalAcrossThreadCounts) {
  const sweep::Grid grid = small_frontier();
  const auto requests = grid.requests();
  sweep::SweepRunner serial(sweep::SweepOptions{.threads = 1});
  sweep::SweepRunner threaded(sweep::SweepOptions{.threads = 4});
  const auto a = sweep::perf_per_watt_frontier(grid, serial.run(requests));
  const auto b = sweep::perf_per_watt_frontier(grid, threaded.run(requests));
  const std::string doc_a = sweep::frontier_json("t", grid, a);
  EXPECT_EQ(doc_a, sweep::frontier_json("t", grid, b));
  EXPECT_NE(doc_a.find("\"schema\":\"soccluster-energy-frontier/v1\""),
            std::string::npos);
}

TEST(Frontier, ParetoMarkingIsPerWorkloadAndConsistent) {
  const sweep::Grid grid = small_frontier();
  sweep::SweepRunner runner(sweep::SweepOptions{.threads = 4});
  const auto points =
      sweep::perf_per_watt_frontier(grid, runner.run(grid.requests()));
  ASSERT_EQ(points.size(), grid.size());
  for (const std::string& workload : grid.workloads) {
    std::vector<const sweep::FrontierPoint*> mine;
    for (const auto& p : points) {
      if (p.workload == workload) mine.push_back(&p);
    }
    ASSERT_FALSE(mine.empty());
    // The lexicographic minima in (seconds, joules) and (joules, seconds)
    // are always non-dominated.
    const auto fastest =
        *std::min_element(mine.begin(), mine.end(), [](auto* a, auto* b) {
          return a->seconds != b->seconds ? a->seconds < b->seconds
                                          : a->joules < b->joules;
        });
    const auto frugal =
        *std::min_element(mine.begin(), mine.end(), [](auto* a, auto* b) {
          return a->joules != b->joules ? a->joules < b->joules
                                        : a->seconds < b->seconds;
        });
    EXPECT_TRUE(fastest->pareto) << workload;
    EXPECT_TRUE(frugal->pareto) << workload;
    // Every dominated point has a dominating witness on the frontier.
    for (const auto* p : mine) {
      if (p->pareto) continue;
      bool witnessed = false;
      for (const auto* q : mine) {
        if (q->pareto && q->seconds <= p->seconds && q->joules <= p->joules &&
            (q->seconds < p->seconds || q->joules < p->joules)) {
          witnessed = true;
          break;
        }
      }
      EXPECT_TRUE(witnessed) << workload;
    }
  }
}

// --- RunRequest API ------------------------------------------------------

TEST(RunRequest, WorkloadRefWinsOverTag) {
  auto request = quick_request("hpl", 2, 2);
  const auto jacobi = workloads::make_workload("jacobi");
  request.workload_ref = jacobi.get();

  std::unique_ptr<workloads::Workload> owned;
  const workloads::Workload& resolved =
      cluster::resolve_workload(request, owned);
  EXPECT_EQ(resolved.name(), "jacobi");
  EXPECT_EQ(owned, nullptr);  // nothing instantiated: the ref was used

  const auto by_ref = cluster::run(request);
  request.workload_ref = nullptr;
  request.workload = "jacobi";
  const auto by_tag = cluster::run(request);
  EXPECT_EQ(by_ref.stats.event_checksum, by_tag.stats.event_checksum);
}

TEST(RunRequest, ValidateRejectsBadShapes) {
  auto request = quick_request("jacobi", 0, 1);
  EXPECT_THROW(cluster::run(request), Error);
  request = quick_request("jacobi", 4, 6);  // ranks not a multiple of nodes
  EXPECT_THROW(cluster::run(request), Error);
}

}  // namespace
}  // namespace soc
