// Tests for src/prof/: critical-path extraction on hand-built
// micro-programs (each also checked against the reference engine),
// zero-residual attribution invariants, attribute() against a
// whole-timeline reference walk, the energy attribution's exact joules and
// zero-residual partitions on every fig5/fig6 configuration, DVFS runs,
// concurrent Eq. 4 replays equal to inline ones, and byte-identical
// profile artifacts across sweep thread counts and repeated runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "common/parallel.h"
#include "fuzz_programs.h"
#include "prof/critical_path.h"
#include "prof/energy.h"
#include "prof/profile.h"
#include "prof/profiler.h"
#include "reference_engine.h"
#include "sim/engine.h"
#include "sim/op.h"
#include "sweep/sweep.h"
#include "systems/machines.h"
#include "workloads/scenario.h"
#include "workloads/workload.h"

namespace soc::prof {
namespace {

// Fixed-cost model for hand-computable schedules.
class FixedCostModel : public sim::CostModel {
 public:
  SimTime cpu_time = 10 * kMillisecond;
  SimTime gpu_time = 20 * kMillisecond;
  SimTime copy = 5 * kMillisecond;
  SimTime latency = 1 * kMillisecond;
  double bandwidth = 1e9;  // bytes/s
  SimTime overhead = 0;

  SimTime cpu_compute_time(int, const sim::Op&) const override {
    return cpu_time;
  }
  SimTime gpu_kernel_time(int, const sim::Op&) const override {
    return gpu_time;
  }
  SimTime copy_time(int, const sim::Op&) const override { return copy; }
  SimTime message_latency(int src, int dst) const override {
    return src == dst ? 0 : latency;
  }
  SimTime message_transfer_time(int, int, Bytes bytes) const override {
    return transfer_time(bytes, bandwidth);
  }
  SimTime send_overhead(int) const override { return overhead; }
  SimTime recv_overhead(int) const override { return overhead; }
};

struct MicroRun {
  sim::RunStats stats;
  Profiler profiler;
  const RunTrace& trace() const { return profiler.trace(); }
};

// Runs the programs profiled, and checks the engine against the reference
// engine on them.
MicroRun run_micro(const std::vector<std::vector<sim::Op>>& programs,
                   const sim::Placement& placement,
                   const FixedCostModel& cost) {
  MicroRun run;
  sim::Engine engine(placement, cost, sim::EngineConfig{});
  engine.set_observer(&run.profiler);
  run.stats = engine.run(programs);
  EXPECT_EQ(test::engine_vs_reference(programs, placement, cost), "");
  return run;
}

SimTime profile_sum(const RankProfile& profile) {
  SimTime total = 0;
  for (const SimTime ns : profile.by_category) total += ns;
  return total;
}

// Every rank's full-timeline profile must tile [0, makespan] with zero
// residual, and the walked path must tile it too (attribute() asserts
// both internally; the test states the contract explicitly).
void expect_zero_residual(const Attribution& attribution, SimTime makespan) {
  ASSERT_GT(makespan, 0);
  EXPECT_EQ(attribution.path.total, makespan);
  SimTime step_sum = 0;
  for (const PathStep& s : attribution.path.steps) step_sum += s.end - s.begin;
  EXPECT_EQ(step_sum, makespan);
  SimTime category_sum = 0;
  for (const SimTime ns : attribution.path.by_category) category_sum += ns;
  EXPECT_EQ(category_sum, makespan);
  for (const RankProfile& profile : attribution.rank_profiles) {
    EXPECT_EQ(profile_sum(profile), makespan);
  }
}

constexpr auto idx = [](Category c) { return static_cast<std::size_t>(c); };

TEST(CriticalPath, PureComputeChain) {
  // Rank 0 runs three compute ops, rank 1 one; the path is rank 0's
  // compute end to end, and rank 1 pads with idle.
  FixedCostModel cost;
  std::vector<std::vector<sim::Op>> programs(2);
  programs[0] = {sim::cpu_op(1000, 0, 0, 0), sim::cpu_op(1000, 0, 0, 0),
                 sim::cpu_op(1000, 0, 0, 0)};
  programs[1] = {sim::cpu_op(1000, 0, 0, 0)};
  const auto run =
      run_micro(programs, sim::Placement::block(2, 2), cost);
  ASSERT_EQ(run.stats.makespan, 30 * kMillisecond);

  const Attribution a = attribute(run.trace());
  expect_zero_residual(a, run.stats.makespan);
  EXPECT_EQ(a.path.by_category[idx(Category::kCompute)], 30 * kMillisecond);
  EXPECT_EQ(a.path.by_rank[0], 30 * kMillisecond);
  EXPECT_EQ(a.path.by_rank[1], 0);
  EXPECT_EQ(a.path.steps.size(), 3u);
  // Rank 1: 10 ms of compute, then idle until the run drains.
  EXPECT_EQ(a.rank_profiles[1].by_category[idx(Category::kCompute)],
            10 * kMillisecond);
  EXPECT_EQ(a.rank_profiles[1].by_category[idx(Category::kIdle)],
            20 * kMillisecond);
}

TEST(CriticalPath, RendezvousPingPong) {
  // 1 MB messages rendezvous: each hop is latency (1 ms) + wire (1 ms),
  // so the whole 4 ms run sits on the transfer category.
  FixedCostModel cost;
  const Bytes bytes = 1000 * 1000;
  std::vector<std::vector<sim::Op>> programs(2);
  programs[0] = {sim::send_op(1, bytes, 7), sim::recv_op(1, bytes, 8)};
  programs[1] = {sim::recv_op(0, bytes, 7), sim::send_op(0, bytes, 8)};
  const auto run =
      run_micro(programs, sim::Placement::block(2, 2), cost);
  ASSERT_EQ(run.stats.makespan, 4 * kMillisecond);

  const Attribution a = attribute(run.trace());
  expect_zero_residual(a, run.stats.makespan);
  EXPECT_EQ(a.path.by_category[idx(Category::kTransfer)], 4 * kMillisecond);
  // The profiler reconstructed both matches (two committed messages, all
  // four ops bound to a partner).
  ASSERT_EQ(run.trace().messages.size(), 2u);
  for (const OpExec& op : run.trace().ops) {
    EXPECT_GE(op.msg, 0);
    EXPECT_GE(op.partner, 0);
  }
}

TEST(CriticalPath, ContendedGpuLane) {
  // Two ranks share one node's GPU: the second kernel queues behind the
  // first, so the path is 20 ms of gpu-wait then 20 ms of gpu-busy.
  FixedCostModel cost;
  std::vector<std::vector<sim::Op>> programs(2);
  programs[0] = {sim::gpu_op(1e9, 0, sim::MemModel::kHostDevice)};
  programs[1] = {sim::gpu_op(1e9, 0, sim::MemModel::kHostDevice)};
  const auto run =
      run_micro(programs, sim::Placement::block(2, 1), cost);
  ASSERT_EQ(run.stats.makespan, 40 * kMillisecond);

  const Attribution a = attribute(run.trace());
  expect_zero_residual(a, run.stats.makespan);
  EXPECT_EQ(a.path.by_category[idx(Category::kGpuWait)], 20 * kMillisecond);
  EXPECT_EQ(a.path.by_category[idx(Category::kGpuBusy)], 20 * kMillisecond);
}

TEST(CriticalPath, NonblockingWaitAllWindow) {
  // Eager halo exchange: irecv + isend + waitall + compute per rank,
  // with per-message overheads so the waitall window is non-trivial.
  FixedCostModel cost;
  cost.overhead = 2 * kMillisecond;
  const Bytes bytes = 4096;  // below the eager threshold
  std::vector<std::vector<sim::Op>> programs(2);
  for (int r = 0; r < 2; ++r) {
    const int peer = 1 - r;
    programs[r] = {sim::irecv_op(peer, bytes, 3), sim::isend_op(peer, bytes, 3),
                   sim::wait_all_op(), sim::cpu_op(1000, 0, 0, 0)};
  }
  const auto run =
      run_micro(programs, sim::Placement::block(2, 2), cost);

  const Attribution a = attribute(run.trace());
  expect_zero_residual(a, run.stats.makespan);
}

TEST(CriticalPath, MixedMicroProgramMatchesReference) {
  FixedCostModel cost;
  cost.overhead = 1 * kMillisecond;
  const Bytes big = 1000 * 1000;
  std::vector<std::vector<sim::Op>> programs(4);
  // A mix: compute, GPU contention, eager and rendezvous messaging
  // across two nodes.
  programs[0] = {sim::cpu_op(1000, 0, 0, 0),
                 sim::send_op(2, big, 1),
                 sim::gpu_op(1e9, 0, sim::MemModel::kHostDevice),
                 sim::recv_op(2, 64, 2)};
  programs[1] = {sim::gpu_op(1e9, 0, sim::MemModel::kHostDevice),
                 sim::copy_h2d_op(4096, sim::MemModel::kHostDevice)};
  programs[2] = {sim::recv_op(0, big, 1), sim::cpu_op(1000, 0, 0, 0),
                 sim::send_op(0, 64, 2)};
  programs[3] = {sim::irecv_op(2, 128, 9), sim::wait_all_op(),
                 sim::cpu_op(1000, 0, 0, 0)};
  programs[2].push_back(sim::isend_op(3, 128, 9));
  const auto run =
      run_micro(programs, sim::Placement::block(4, 2), cost);
  expect_zero_residual(attribute(run.trace()), run.stats.makespan);
}

// ---------------------------------------------------------------------------
// attribute() against a reference that builds every rank's whole segment
// timeline and binary-searches it at each step of the walk.  attribute()
// keeps no timeline: it rebuilds only the op window the walk is in.
// ---------------------------------------------------------------------------

struct RefSegment {
  SimTime begin = 0;
  SimTime end = 0;
  Category category = Category::kCompute;
  int phase = 0;
  int jump = -1;
};

void ref_emit(std::vector<RefSegment>& out, SimTime begin, SimTime end,
              Category category, int phase, int jump = -1) {
  if (end > begin) out.push_back(RefSegment{begin, end, category, phase, jump});
}

// Parked until the partner dispatched at p, queued until q, on the wire
// until e, then receive overhead; all clipped to the window [b0, c).
void ref_chain(const OpExec& op, SimTime p, SimTime q, SimTime e,
               Category blocked, int jump, std::vector<RefSegment>& out) {
  const SimTime b0 = op.dispatch;
  const SimTime c = op.complete;
  const auto clip = [&](SimTime t) { return std::min(std::max(t, b0), c); };
  ref_emit(out, b0, clip(p), blocked, op.phase, jump);
  ref_emit(out, clip(p), clip(q), Category::kNicWait, op.phase);
  ref_emit(out, clip(q), clip(e), Category::kTransfer, op.phase);
  ref_emit(out, clip(e), c, Category::kRecvOverhead, op.phase);
}

void ref_op_segments(const RunTrace& trace, const OpExec& op,
                     std::vector<RefSegment>& out) {
  const SimTime b0 = op.dispatch;
  const SimTime c = op.complete;
  const auto op_at = [&](int i) -> const OpExec& {
    return trace.ops[static_cast<std::size_t>(i)];
  };
  const auto msg_at = [&](int i) -> const sim::MessageRecord& {
    return trace.messages[static_cast<std::size_t>(i)];
  };
  switch (op.kind) {
    case sim::OpKind::kCpuCompute:
      ref_emit(out, b0, c, Category::kCompute, op.phase);
      return;
    case sim::OpKind::kDelay:
      ref_emit(out, b0, c, Category::kInjected, op.phase);
      return;
    case sim::OpKind::kGpuKernel:
      ref_emit(out, b0, op.busy_start, Category::kGpuWait, op.phase);
      ref_emit(out, op.busy_start, c, Category::kGpuBusy, op.phase);
      return;
    case sim::OpKind::kCopyH2D:
    case sim::OpKind::kCopyD2H:
      ref_emit(out, b0, op.busy_start, Category::kCopyWait, op.phase);
      ref_emit(out, op.busy_start, c, Category::kCopyBusy, op.phase);
      return;
    case sim::OpKind::kSend: {
      const sim::MessageRecord& m = msg_at(op.msg);
      if (m.eager) {
        ref_emit(out, b0, c, Category::kSendOverhead, op.phase);
      } else {
        const OpExec& recv = op_at(op.partner);
        ref_chain(op, recv.dispatch, m.start, m.end, Category::kBlockedSend,
                  recv.rank, out);
      }
      return;
    }
    case sim::OpKind::kRecv: {
      const sim::MessageRecord& m = msg_at(op.msg);
      const OpExec& send = op_at(op.partner);
      ref_chain(op, send.dispatch, m.start, m.end, Category::kBlockedRecv,
                send.rank, out);
      return;
    }
    case sim::OpKind::kIsend:
      ref_emit(out, b0, c, Category::kSendOverhead, op.phase);
      return;
    case sim::OpKind::kIrecv:
      ref_emit(out, b0, c, Category::kRecvOverhead, op.phase);
      return;
    case sim::OpKind::kWaitAll: {
      if (c <= b0) return;
      const OpExec& det = op_at(op.determinant);
      const sim::MessageRecord& m = msg_at(det.msg);
      const OpExec& send = op_at(det.partner);
      ref_chain(op, send.dispatch, m.start, m.end, Category::kBlockedWait,
                send.rank, out);
      return;
    }
    default:
      FAIL() << "unexpected op kind";
  }
}

Attribution reference_attribute(const RunTrace& trace) {
  const std::size_t n = static_cast<std::size_t>(trace.placement.ranks);
  const SimTime makespan = trace.stats.makespan;
  std::vector<std::vector<RefSegment>> timelines(n);
  Attribution out;
  out.rank_profiles.assign(n, RankProfile{});
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<RefSegment>& segments = timelines[r];
    for (const int oi : trace.rank_ops[r]) {
      ref_op_segments(trace, trace.ops[static_cast<std::size_t>(oi)],
                      segments);
    }
    const int last_phase = segments.empty() ? 0 : segments.back().phase;
    ref_emit(segments, trace.finish[r], makespan, Category::kIdle, last_phase);
    for (const RefSegment& s : segments) {
      out.rank_profiles[r].by_category[idx(s.category)] += s.end - s.begin;
    }
  }
  CriticalPath& path = out.path;
  path.by_rank.assign(n, 0);
  std::size_t rank = 0;
  while (rank + 1 < n && trace.finish[rank] != makespan) ++rank;
  SimTime cursor = makespan;
  while (cursor > 0) {
    const std::vector<RefSegment>& segments = timelines[rank];
    const auto it = std::upper_bound(
        segments.begin(), segments.end(), cursor - 1,
        [](SimTime v, const RefSegment& s) { return v < s.begin; });
    if (it == segments.begin() || (it - 1)->end != cursor) {
      ADD_FAILURE() << "reference walk left the timeline at " << cursor;
      return out;
    }
    const RefSegment& s = *(it - 1);
    if (s.jump >= 0) {
      rank = static_cast<std::size_t>(s.jump);
      continue;
    }
    path.steps.push_back(PathStep{s.category, static_cast<int>(rank), s.phase,
                                  s.begin, s.end});
    path.by_category[idx(s.category)] += s.end - s.begin;
    path.by_phase[s.phase] += s.end - s.begin;
    path.by_rank[rank] += s.end - s.begin;
    path.total += s.end - s.begin;
    cursor = s.begin;
  }
  std::reverse(path.steps.begin(), path.steps.end());
  return out;
}

void expect_same_attribution(const RunTrace& trace, const std::string& tag) {
  const Attribution got = attribute(trace);
  const Attribution want = reference_attribute(trace);
  ASSERT_EQ(got.rank_profiles.size(), want.rank_profiles.size()) << tag;
  for (std::size_t r = 0; r < want.rank_profiles.size(); ++r) {
    EXPECT_EQ(got.rank_profiles[r].by_category,
              want.rank_profiles[r].by_category)
        << tag << " rank " << r;
  }
  ASSERT_EQ(got.path.steps.size(), want.path.steps.size()) << tag;
  for (std::size_t i = 0; i < want.path.steps.size(); ++i) {
    const PathStep& g = got.path.steps[i];
    const PathStep& w = want.path.steps[i];
    EXPECT_TRUE(g.category == w.category && g.rank == w.rank &&
                g.phase == w.phase && g.begin == w.begin && g.end == w.end)
        << tag << " step " << i;
  }
  EXPECT_EQ(got.path.by_category, want.path.by_category) << tag;
  EXPECT_EQ(got.path.by_phase, want.path.by_phase) << tag;
  EXPECT_EQ(got.path.by_rank, want.path.by_rank) << tag;
  EXPECT_EQ(got.path.total, want.path.total) << tag;
}

TEST(AttributeReference, EveryWorkloadAtTwoAndFourNodes) {
  for (const std::string& workload : workloads::list()) {
    for (const int nodes : {2, 4}) {
      cluster::RunRequest request;
      request.workload = workload;
      request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
                        nodes};
      request.options.size_scale = 0.05;
      Profiler profiler;
      request.options.observer = &profiler;
      cluster::run(request);
      expect_same_attribution(profiler.trace(),
                              workload + "@" + std::to_string(nodes));
    }
  }
}

// The programs FuzzSeeds profiles: isend/irecv/waitall, blocking
// exchanges in both protocols, and tags reused on one channel, with two
// or four ranks per node.
class AttributeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AttributeFuzz, MixedProgramsMatchReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const int ranks = 8;
  const int nodes = seed % 2 == 0 ? 4 : 2;
  const auto programs = test::mixed_programs(seed * 7919 + 5, ranks);
  test::FuzzCost cost(1e9);
  Profiler profiler;
  sim::Engine engine(sim::Placement::block(ranks, nodes), cost);
  engine.set_observer(&profiler);
  engine.run(programs);
  expect_same_attribution(profiler.trace(), "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttributeFuzz, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Energy attribution on every fig5 and fig6 configuration.
// ---------------------------------------------------------------------------

void check_energy(const std::string& workload, int nodes, int ranks) {
  cluster::RunRequest request;
  request.workload = workload;
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
                    ranks};
  Profile profile;
  request.profile = &profile;
  const auto result = cluster::run(request);
  const std::string tag = workload + "@" + std::to_string(nodes);
  EXPECT_EQ(profile.makespan, result.stats.makespan) << tag;

  // The prefix integration reproduces the meter bit-exactly, and both
  // fixed-point partitions carry zero residual.
  ASSERT_TRUE(profile.has_energy) << tag;
  const EnergyAttribution& e = profile.energy;
  EXPECT_EQ(e.joules, result.energy.joules) << tag;  // bit-exact
  EXPECT_TRUE(e.breakdown == result.energy.breakdown) << tag;
  EXPECT_EQ(e.total_uj, std::llround(e.joules * 1e6)) << tag;
  std::int64_t uj = 0, idle = 0, cpu = 0, gpu = 0, nic = 0, dram = 0;
  for (const PhaseEnergy& p : e.phases) {
    EXPECT_GE(p.uj, 0) << tag;
    uj += p.uj;
    idle += p.idle_uj;
    cpu += p.cpu_uj;
    gpu += p.gpu_uj;
    nic += p.nic_uj;
    dram += p.dram_uj;
  }
  EXPECT_EQ(uj, e.total_uj) << tag;
  EXPECT_EQ(idle, e.idle_uj) << tag;
  EXPECT_EQ(cpu, e.cpu_uj) << tag;
  EXPECT_EQ(gpu, e.gpu_uj) << tag;
  EXPECT_EQ(nic, e.nic_uj) << tag;
  EXPECT_EQ(dram, e.dram_uj) << tag;
  ASSERT_EQ(e.rank_uj.size(), static_cast<std::size_t>(ranks)) << tag;
  std::int64_t rank_sum = 0;
  for (const std::int64_t r : e.rank_uj) {
    EXPECT_GE(r, 0) << tag;
    rank_sum += r;
  }
  EXPECT_EQ(rank_sum, e.total_uj) << tag;
}

TEST(EnergyAttribution, ExactOnFig5Configs) {
  for (const char* workload :
       {"hpl", "jacobi", "cloverleaf", "tealeaf2d", "tealeaf3d"}) {
    for (const int nodes : {2, 4, 8, 16}) {
      check_energy(workload, nodes, nodes);
    }
  }
}

TEST(EnergyAttribution, ExactOnFig6Configs) {
  for (const char* workload :
       {"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}) {
    for (const int nodes : {2, 4, 8, 16}) {
      check_energy(workload, nodes, 2 * nodes);
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent passes.  At top level the two Eq. 4 replays run on helper
// threads; inside a parallel_for task they run inline.  Both must give the
// same results, bit for bit, and the profiled run after them must not
// depend on where it ran either.
// ---------------------------------------------------------------------------

struct Analysis {
  trace::ScenarioRuns runs;
  Profile profile;
};

Analysis analyze_request(cluster::RunRequest request,
                         const workloads::Workload& workload,
                         const cluster::ClusterCostModel& cost) {
  Analysis analysis;
  analysis.runs = cluster::replay_scenarios(request, workload, cost);
  request.profile = &analysis.profile;
  cluster::run(request, workload, cost);
  return analysis;
}

void expect_same_stats(const sim::RunStats& got, const sim::RunStats& want,
                       const std::string& tag) {
  EXPECT_EQ(got.event_checksum, want.event_checksum) << tag;
  EXPECT_EQ(got.events_committed, want.events_committed) << tag;
  EXPECT_EQ(got.makespan, want.makespan) << tag;
  EXPECT_TRUE(got.ranks == want.ranks) << tag << ": per-rank stats differ";
  EXPECT_TRUE(got == want) << tag;
}

void expect_concurrent_equals_inline(const cluster::RunRequest& request,
                                     const std::string& tag) {
  const auto workload = workloads::make_workload(request.workload);
  // One cost model for all four calls: the test compares scheduling, not
  // characterization, and sharing it keeps the test short.
  const cluster::ClusterCostModel cost(
      request.config.node, request.config.nodes, request.config.ranks,
      workload->cpu_profile());
  const Analysis concurrent = analyze_request(request, *workload, cost);
  Analysis inline_passes;
  parallel_for(1, [&](std::size_t) {
    inline_passes = analyze_request(request, *workload, cost);
  });

  const trace::ScenarioRuns& a = concurrent.runs;
  const trace::ScenarioRuns& b = inline_passes.runs;
  expect_same_stats(a.measured, b.measured, tag + " measured");
  expect_same_stats(a.ideal_network, b.ideal_network, tag + " ideal network");
  expect_same_stats(a.ideal_balance, b.ideal_balance, tag + " ideal balance");

  const Profile& p = concurrent.profile;
  const Profile& q = inline_passes.profile;
  EXPECT_TRUE(p.attribution.path == q.attribution.path) << tag;
  EXPECT_TRUE(p.attribution.rank_profiles == q.attribution.rank_profiles)
      << tag;
  EXPECT_TRUE(p.energy == q.energy) << tag << ": energy partitions differ";
  EXPECT_TRUE(p == q) << tag;
}

TEST(ConcurrentPasses, EqualInlinePassesOnEveryWorkload) {
  for (const std::string& workload : workloads::list()) {
    for (const int nodes : {2, 4}) {
      cluster::RunRequest request;
      request.workload = workload;
      request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
                        nodes};
      request.options.size_scale = 0.05;
      expect_concurrent_equals_inline(
          request, workload + "@" + std::to_string(nodes));
    }
  }
}

// jacobi@4 under each scenario the CI smoke runs: the replays re-time the
// op sequence the decorated measured run recorded.
TEST(ConcurrentPasses, EqualInlinePassesUnderScenarios) {
  const struct {
    const char* name;
    workloads::ScenarioConfig scenario;
  } cases[] = {
      {"node crash",
       workloads::parse_scenario("node-crash:node=0,t=2,down=10", "", "")},
      {"straggler",
       workloads::parse_scenario("straggler:rank=1,slowdown=2.0", "", "")},
      {"daly checkpoint",
       workloads::parse_scenario("", "", "daly:size=4e9,bw=2e9,mtti=60")},
      {"os noise",
       workloads::parse_scenario("", "interval=0.05,duration=0.002,seed=7",
                                 "")},
  };
  for (const auto& c : cases) {
    cluster::RunRequest request;
    request.workload = "jacobi";
    request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), 4, 4};
    request.scenario = c.scenario;
    expect_concurrent_equals_inline(request, std::string("jacobi@4 ") + c.name);
  }
}

// ---------------------------------------------------------------------------
// Artifact determinism.
// ---------------------------------------------------------------------------

std::vector<std::string> sweep_artifacts(unsigned threads) {
  std::vector<cluster::RunRequest> requests;
  std::vector<Profile> profiles(3);
  requests.push_back(cluster::RunRequest{});
  requests.back().workload = "hpl";
  requests.back().config = {systems::jetson_tx1(net::NicKind::kTenGigabit), 4,
                            4};
  requests.push_back(cluster::RunRequest{});
  requests.back().workload = "cg";
  requests.back().config = {systems::jetson_tx1(net::NicKind::kTenGigabit), 4,
                            8};
  requests.push_back(cluster::RunRequest{});
  requests.back().workload = "jacobi";
  requests.back().config = {systems::jetson_tx1(net::NicKind::kGigabit), 2, 2};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].profile = &profiles[i];
  }

  sweep::SweepOptions options;
  options.threads = threads;
  sweep::SweepRunner runner(options);
  runner.run(requests);

  std::vector<std::string> rendered;
  for (const Profile& profile : profiles) {
    rendered.push_back(profile_json(profile));
    rendered.push_back(folded_stacks(profile));
    rendered.push_back(energy_json(profile.energy));
  }
  return rendered;
}

TEST(ProfileArtifact, ByteIdenticalAcrossSweepThreadsAndRepeats) {
  const auto serial = sweep_artifacts(1);
  const auto parallel = sweep_artifacts(4);
  const auto repeated = sweep_artifacts(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "artifact " << i;
    EXPECT_EQ(parallel[i], repeated[i]) << "artifact " << i;
  }
  // Sanity: the artifacts are non-trivial documents.
  EXPECT_NE(serial[0].find("soccluster-critical-path/v2"), std::string::npos);
  EXPECT_NE(serial[1].find("rank 0;phase"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Energy what-ifs: a DVFS state is a run of its own at systems::with_dvfs,
// as `socbench explain --dvfs` and `socbench frontier` run it.  Power caps
// are power_test's Cap* tests.
// ---------------------------------------------------------------------------

cluster::RunResult run_at_clock(const std::string& workload, int nodes,
                                int ranks, double freq_scale) {
  cluster::RunRequest request;
  request.workload = workload;
  request.config = {
      systems::with_dvfs(systems::jetson_tx1(net::NicKind::kTenGigabit),
                         freq_scale),
      nodes, ranks};
  return cluster::run(request);
}

TEST(EnergyWhatIf, DownclockStretchesRuntimeAndSavesActiveEnergy) {
  const cluster::RunResult base = run_at_clock("jacobi", 4, 4, 1.0);
  const cluster::RunResult slow = run_at_clock("jacobi", 4, 4, 0.8);
  const power::EnergyBreakdown& b = base.energy.breakdown;
  const power::EnergyBreakdown& d = slow.energy.breakdown;
  EXPECT_GT(slow.stats.makespan, base.stats.makespan);
  // Active power falls faster than busy time grows below nominal...
  EXPECT_LT(d.cpu + d.gpu, b.cpu + b.gpu);
  // ...while the longer runtime accrues more frequency-independent draw.
  EXPECT_GT(d.idle, b.idle);
  EXPECT_GE(d.nic, b.nic);
}

TEST(EnergyWhatIf, OverclockShortensRuntime) {
  const cluster::RunResult base = run_at_clock("cg", 2, 4, 1.0);
  const cluster::RunResult fast = run_at_clock("cg", 2, 4, 1.2);
  EXPECT_LT(fast.stats.makespan, base.stats.makespan);
  // Superlinear VF curve: faster costs more active compute energy.
  EXPECT_GT(fast.energy.breakdown.cpu + fast.energy.breakdown.gpu,
            base.energy.breakdown.cpu + base.energy.breakdown.gpu);
}

TEST(EnergyArtifact, SchemaAndFixedPointPartition) {
  cluster::RunRequest request;
  request.workload = "tealeaf2d";
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), 2, 2};
  Profile profile;
  request.profile = &profile;
  cluster::run(request);

  ASSERT_TRUE(profile.has_energy);
  const std::string doc = energy_json(profile.energy);
  EXPECT_NE(doc.find("\"schema\":\"soccluster-energy-attribution/v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"total_uj\":"), std::string::npos);
  EXPECT_NE(doc.find("\"components_uj\":"), std::string::npos);
  EXPECT_NE(doc.find("\"rank_uj\":"), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');
}

TEST(ProfileArtifact, SchemaCarriesIntegerInvariants) {
  cluster::RunRequest request;
  request.workload = "tealeaf3d";
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), 4, 4};
  Profile profile;
  request.profile = &profile;
  cluster::run(request);

  const std::string doc = profile_json(profile);
  EXPECT_NE(doc.find("\"schema\":\"soccluster-critical-path/v2\""),
            std::string::npos);
  // No floating-point values anywhere: every duration is integer
  // nanoseconds, so the document cannot diverge between -O2 and sanitizer
  // builds.
  EXPECT_EQ(doc.find('.'), std::string::npos);
  // Lane utilization counters (shared with obs::MetricsObserver).
  EXPECT_NE(doc.find("\"nic_tx\":{\"busy_ns\":"), std::string::npos);
  // The critical path tiles the run exactly.
  expect_zero_residual(profile.attribution, profile.makespan);
}

}  // namespace
}  // namespace soc::prof
