// Tests for the operation-stream workload API: stream-vs-build event
// parity for every registered workload, the cursor stream's bounded
// buffering, BuildContext validation, Daly's optimal checkpoint interval,
// the fault/noise/checkpoint stream decorators (semantics +
// bit-determinism across thread counts), the scenario spec parsers,
// scenario blocks in report documents, the `injected` critical-path
// category's zero-residual contract, and the Eq. 4 replays: streamed
// when undecorated, recorded when decorated, equal to the recorded
// replays either way.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/report.h"
#include "common/error.h"
#include "common/io.h"
#include "net/network.h"
#include "prof/critical_path.h"
#include "prof/profile.h"
#include "sim/engine.h"
#include "sim/op.h"
#include "sweep/grid.h"
#include "sweep/sweep.h"
#include "systems/machines.h"
#include "trace/export.h"
#include "trace/replay.h"
#include "workloads/op_stream.h"
#include "workloads/scenario.h"
#include "workloads/workload.h"

namespace soc {
namespace {

workloads::BuildContext quick_context(int nodes, int ranks,
                                      double scale = 0.05) {
  workloads::BuildContext ctx;
  ctx.nodes = nodes;
  ctx.ranks = ranks;
  ctx.size_scale = scale;
  return ctx;
}

cluster::RunRequest quick_request(const std::string& workload, int nodes,
                                  int ranks, double scale = 0.05) {
  cluster::RunRequest request;
  request.workload = workload;
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
                    ranks};
  request.options.size_scale = scale;
  return request;
}

/// The message carried by a soc::Error thrown from `fn`, or "" if it
/// doesn't throw.
template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

// --- stream-vs-build parity ----------------------------------------------

// The lazy program-walking adapter must commit the byte-identical event
// stream the pre-built std::vector<Program> path commits, for every
// registered workload.  This is the API redesign's core contract.
TEST(OpStream, StreamMatchesBuildForEveryWorkload) {
  for (const std::string& name : workloads::list()) {
    const auto workload = workloads::make_workload(name);
    const int nodes = 2;
    const int ranks = sweep::natural_ranks(*workload, nodes);
    const workloads::BuildContext ctx = quick_context(nodes, ranks);
    const auto node = systems::jetson_tx1(net::NicKind::kTenGigabit);
    const cluster::ClusterCostModel cost(node, nodes, ranks,
                                         workload->cpu_profile());

    const auto programs = workload->build(ctx);
    sim::Engine built(sim::Placement::block(ranks, nodes), cost);
    const sim::RunStats a = built.run(programs);

    const auto stream = workload->stream(ctx);
    sim::Engine streamed(sim::Placement::block(ranks, nodes), cost);
    const sim::RunStats b = streamed.run(*stream);

    EXPECT_EQ(a.event_checksum, b.event_checksum) << name;
    EXPECT_EQ(a.events_committed, b.events_committed) << name;
    EXPECT_EQ(a.makespan, b.makespan) << name;
  }
}

// The stream generates ops an outer iteration at a time as ranks run dry,
// so at its fullest it holds a few iterations of every rank, not the run:
// the high-water mark stays under 1% of the ops the run pulls.
TEST(OpStream, CursorStreamHoldsAFewIterationsNotTheRun) {
  struct Case {
    const char* workload;
    bool overlap_halos;
  };
  for (const Case& c : {Case{"cg", false}, Case{"jacobi", true}}) {
    const auto workload = workloads::make_workload(c.workload);
    const int nodes = 4;
    const int ranks = sweep::natural_ranks(*workload, nodes);
    workloads::BuildContext ctx = quick_context(nodes, ranks, 1.0);
    ctx.overlap_halos = c.overlap_halos;
    std::size_t ops = 0;
    for (const sim::Program& p : workload->build(ctx)) ops += p.size();

    workloads::CursorStream stream(workload->cursor(ctx), ranks);
    const cluster::ClusterCostModel cost(
        systems::jetson_tx1(net::NicKind::kTenGigabit), nodes, ranks,
        workload->cpu_profile());
    sim::Engine engine(sim::Placement::block(ranks, nodes), cost);
    const sim::RunStats stats = engine.run(stream);

    EXPECT_GT(stats.events_committed, 0u) << c.workload;
    EXPECT_GT(stream.high_water(), 0u) << c.workload;
    EXPECT_LT(stream.high_water() * 100, ops)
        << c.workload << " held " << stream.high_water() << " of " << ops
        << " ops at once";
  }
}

// An empty scenario wraps nothing: apply_scenarios returns the inner
// stream unchanged and cluster::run commits the same events it always has.
TEST(OpStream, EmptyScenarioIsIdentity) {
  cluster::RunRequest request = quick_request("jacobi", 2, 2);
  const auto clean = cluster::run(request);
  request.scenario = workloads::ScenarioConfig{};
  EXPECT_FALSE(request.scenario.enabled());
  const auto again = cluster::run(request);
  EXPECT_EQ(clean.stats.event_checksum, again.stats.event_checksum);
}

// --- BuildContext validation ---------------------------------------------

TEST(BuildContext, ValidationNamesTheOffendingField) {
  const auto workload = workloads::make_workload("jacobi");
  const auto build_with = [&](workloads::BuildContext ctx) {
    return [&workload, ctx] { (void)workload->build(ctx); };
  };

  workloads::BuildContext bad_ranks = quick_context(2, 2);
  bad_ranks.ranks = 0;
  EXPECT_NE(error_message(build_with(bad_ranks)).find("ranks"),
            std::string::npos);

  workloads::BuildContext bad_nodes = quick_context(2, 2);
  bad_nodes.nodes = -1;
  EXPECT_NE(error_message(build_with(bad_nodes)).find("nodes"),
            std::string::npos);

  workloads::BuildContext bad_fraction = quick_context(2, 2);
  bad_fraction.gpu_work_fraction = 1.5;
  EXPECT_NE(error_message(build_with(bad_fraction)).find("gpu_work_fraction"),
            std::string::npos);

  workloads::BuildContext bad_scale = quick_context(2, 2);
  bad_scale.size_scale = 0.0;
  EXPECT_NE(error_message(build_with(bad_scale)).find("size_scale"),
            std::string::npos);

  workloads::BuildContext uneven = quick_context(3, 4);
  EXPECT_NE(error_message(build_with(uneven)).find("multiple"),
            std::string::npos);

  // The stream path validates eagerly at construction, before any pull.
  workloads::BuildContext bad_stream = quick_context(2, 2);
  bad_stream.size_scale = -1.0;
  EXPECT_THROW((void)workload->stream(bad_stream), Error);
}

// --- Daly's optimal interval ---------------------------------------------

TEST(Checkpoint, DalyOptimalInterval) {
  // Higher-order closed form for delta = 100 s, M = 10000 s.
  EXPECT_NEAR(workloads::daly_optimal_interval(100.0, 10000.0),
              1348.332569907747, 1e-6);
  // Past delta >= 2M the formula degenerates to tau = M.
  EXPECT_DOUBLE_EQ(workloads::daly_optimal_interval(200.0, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(workloads::daly_optimal_interval(200.0, 50.0), 50.0);
  // Longer MTTI stretches the interval; a cheaper write shortens the
  // overhead but the interval still grows with sqrt(delta).
  EXPECT_LT(workloads::daly_optimal_interval(100.0, 1000.0),
            workloads::daly_optimal_interval(100.0, 10000.0));
  EXPECT_LT(workloads::daly_optimal_interval(1.0, 10000.0),
            workloads::daly_optimal_interval(100.0, 10000.0));
}

// --- decorator semantics -------------------------------------------------

TEST(Scenario, NodeCrashStallsTheRun) {
  cluster::RunRequest request = quick_request("jacobi", 2, 2);
  const auto clean = cluster::run(request);
  request.scenario.faults.push_back(
      workloads::parse_fault_spec("node-crash:node=0,t=1,down=5"));
  const auto crashed = cluster::run(request);
  // Jacobi ranks synchronize every iteration, so the 5 s downtime lands
  // almost fully on the critical path.
  EXPECT_GT(crashed.seconds, clean.seconds + 4.0);
  EXPECT_NE(crashed.stats.event_checksum, clean.stats.event_checksum);
}

TEST(Scenario, StragglerStretchesTheSynchronizedRun) {
  cluster::RunRequest request = quick_request("jacobi", 2, 2);
  const auto clean = cluster::run(request);
  request.scenario.faults.push_back(
      workloads::parse_fault_spec("straggler:rank=1,slowdown=2.0"));
  const auto dragged = cluster::run(request);
  EXPECT_GT(dragged.seconds, 1.5 * clean.seconds);
  EXPECT_LT(dragged.seconds, 2.5 * clean.seconds);
}

TEST(Scenario, LinkFlapAndNoiseDelayTheRun) {
  cluster::RunRequest request = quick_request("cg", 2, 4, 0.2);
  const auto clean = cluster::run(request);

  cluster::RunRequest flapped = request;
  flapped.scenario.faults.push_back(
      workloads::parse_fault_spec("link-flap:node=0,t0=0.1,t1=0.6"));
  EXPECT_GE(cluster::run(flapped).seconds, clean.seconds);

  cluster::RunRequest noisy = request;
  noisy.scenario.noise =
      workloads::parse_noise_spec("interval=0.01,duration=0.002,seed=3");
  EXPECT_GT(cluster::run(noisy).seconds, clean.seconds);
}

TEST(Scenario, DalyCheckpointAddsPeriodicWrites) {
  cluster::RunRequest request = quick_request("jacobi", 2, 2);
  const auto clean = cluster::run(request);
  // 2 s writes and a 10 s MTTI give a ~5 s Daly interval, so multiple
  // checkpoints land inside the ~13 s run, each stalling every rank for
  // the write time.
  request.scenario.checkpoint =
      workloads::parse_checkpoint_spec("daly:size=4e9,bw=2e9,mtti=10");
  const auto ckpt = cluster::run(request);
  const double write_seconds = 4e9 / 2e9;
  EXPECT_GT(ckpt.seconds, clean.seconds + 1.5 * write_seconds);
}

TEST(Scenario, DecoratedRunsAreBitDeterministic) {
  cluster::RunRequest request = quick_request("jacobi", 2, 2);
  request.scenario = workloads::parse_scenario(
      "node-crash:node=0,t=1,down=2;straggler:rank=1,slowdown=1.5",
      "interval=0.05,duration=0.001,seed=7,jitter=0.25",
      "daly:size=1e9,bw=2e9,mtti=300");
  const auto a = cluster::run(request);
  const auto b = cluster::run(request);
  EXPECT_EQ(a.stats.event_checksum, b.stats.event_checksum);
  EXPECT_EQ(a.stats.makespan, b.stats.makespan);
  EXPECT_DOUBLE_EQ(a.joules, b.joules);
}

// A decorator that comes due at the pull after its rank's stream ended
// injects nothing: the rank's one 1 ms delay ends the run at 1 ms with 2
// committed events (the delay and the rank's drain record), although a
// crash, a noise stall and a checkpoint are each due at that pull.
TEST(Scenario, DecoratorDueAfterTheStreamEndsInjectsNothing) {
  workloads::ScenarioConfig crash;
  crash.faults.push_back(
      workloads::parse_fault_spec("node-crash:node=0,t=0.001,down=5"));
  workloads::ScenarioConfig noise;
  noise.noise = workloads::parse_noise_spec("interval=0.001,duration=0.5");
  // A write time of at least twice the MTTI makes Daly's interval the
  // MTTI itself: the first checkpoint is due at 1 ms.
  workloads::ScenarioConfig checkpoint;
  checkpoint.checkpoint =
      workloads::parse_checkpoint_spec("daly:size=1e9,bw=1e9,mtti=0.001");
  const cluster::ClusterCostModel cost(
      systems::jetson_tx1(net::NicKind::kTenGigabit), 1, 1,
      workloads::make_workload("jacobi")->cpu_profile());
  for (const workloads::ScenarioConfig& config : {crash, noise, checkpoint}) {
    std::vector<sim::Program> programs(1);
    programs[0].push_back(sim::delay_op(0.001));
    const auto stream = workloads::apply_scenarios(
        std::make_unique<workloads::ProgramWalkStream>(std::move(programs)),
        config, /*nodes=*/1);
    sim::Engine engine(sim::Placement::block(1, 1), cost);
    const sim::RunStats stats = engine.run(*stream);
    EXPECT_EQ(stats.makespan, 1 * kMillisecond);
    EXPECT_EQ(stats.events_committed, 2u);
  }
}

TEST(Scenario, RejectsOutOfRangeTargets) {
  cluster::RunRequest request = quick_request("jacobi", 2, 2);
  request.scenario.faults.push_back(
      workloads::parse_fault_spec("node-crash:node=7,t=1,down=5"));
  EXPECT_THROW((void)cluster::run(request), Error);

  request.scenario.faults.clear();
  request.scenario.faults.push_back(
      workloads::parse_fault_spec("straggler:rank=9,slowdown=2"));
  EXPECT_THROW((void)cluster::run(request), Error);
}

// --- spec parsers --------------------------------------------------------

TEST(ScenarioParse, FaultSpecs) {
  const auto crash =
      workloads::parse_fault_spec("node-crash:node=1,t=5.5,down=60");
  EXPECT_EQ(crash.kind, workloads::FaultSpec::Kind::kNodeCrash);
  EXPECT_EQ(crash.node, 1);
  EXPECT_DOUBLE_EQ(crash.start_seconds, 5.5);
  EXPECT_DOUBLE_EQ(crash.downtime_seconds, 60.0);

  const auto flap = workloads::parse_fault_spec("link-flap:node=0,t0=2,t1=4");
  EXPECT_EQ(flap.kind, workloads::FaultSpec::Kind::kLinkFlap);
  EXPECT_DOUBLE_EQ(flap.start_seconds, 2.0);
  EXPECT_DOUBLE_EQ(flap.end_seconds, 4.0);

  const auto slow =
      workloads::parse_fault_spec("straggler:rank=3,slowdown=2.5");
  EXPECT_EQ(slow.kind, workloads::FaultSpec::Kind::kStraggler);
  EXPECT_EQ(slow.rank, 3);
  EXPECT_DOUBLE_EQ(slow.slowdown, 2.5);

  EXPECT_THROW(workloads::parse_fault_spec("meteor:node=0"), Error);
  EXPECT_THROW(workloads::parse_fault_spec("node-crash:node=0"), Error);
  EXPECT_THROW(workloads::parse_fault_spec("node-crash:node=0,t=1,down=5,x=1"),
               Error);
  EXPECT_THROW(workloads::parse_fault_spec("straggler:rank=zzz,slowdown=2"),
               Error);
}

TEST(ScenarioParse, NoiseAndCheckpointSpecs) {
  const auto noise = workloads::parse_noise_spec(
      "interval=0.01,duration=0.001,seed=42,jitter=0.25");
  EXPECT_DOUBLE_EQ(noise.interval_seconds, 0.01);
  EXPECT_DOUBLE_EQ(noise.duration_seconds, 0.001);
  EXPECT_EQ(noise.seed, 42u);
  EXPECT_DOUBLE_EQ(noise.jitter, 0.25);
  EXPECT_TRUE(noise.enabled());

  const auto ckpt = workloads::parse_checkpoint_spec(
      "daly:size=4e9,bw=2e9,mtti=3600,runtime=120");
  EXPECT_DOUBLE_EQ(ckpt.size_bytes, 4e9);
  EXPECT_DOUBLE_EQ(ckpt.bandwidth, 2e9);
  EXPECT_DOUBLE_EQ(ckpt.mtti_seconds, 3600.0);
  EXPECT_DOUBLE_EQ(ckpt.runtime_seconds, 120.0);
  EXPECT_TRUE(ckpt.enabled());

  EXPECT_THROW(workloads::parse_checkpoint_spec("size=4e9,bw=2e9,mtti=1"),
               Error);  // missing the daly: prefix
  EXPECT_THROW(workloads::parse_noise_spec("interval=0.01"), Error);

  // Empty flags assemble a disabled config.
  const auto none = workloads::parse_scenario("", "", "");
  EXPECT_FALSE(none.enabled());
  const auto full = workloads::parse_scenario(
      "straggler:rank=0,slowdown=2", "interval=1,duration=0.1",
      "daly:size=1e9,bw=1e9,mtti=60");
  EXPECT_TRUE(full.enabled());
  EXPECT_EQ(full.faults.size(), 1u);
  EXPECT_TRUE(full.noise.enabled());
  EXPECT_TRUE(full.checkpoint.enabled());
}

TEST(ScenarioParse, ConfigIsValueSemantic) {
  const auto a = workloads::parse_scenario("straggler:rank=0,slowdown=2",
                                           "interval=1,duration=0.1", "");
  const auto b = workloads::parse_scenario("straggler:rank=0,slowdown=2",
                                           "interval=1,duration=0.1", "");
  EXPECT_EQ(a, b);
  auto c = a;
  c.faults[0].slowdown = 3.0;
  EXPECT_FALSE(a == c);
}

// --- sweep determinism with scenarios ------------------------------------

TEST(Scenario, SweepThreadCountNeverChangesScenarioResults) {
  sweep::Grid grid;
  grid.workloads = {"jacobi", "cg"};
  grid.nodes = {2};
  grid.base.size_scale = 0.05;
  grid.scenario = workloads::parse_scenario(
      "straggler:rank=0,slowdown=1.5", "interval=0.05,duration=0.001,seed=9",
      "");
  const auto requests = grid.requests();
  for (const cluster::RunRequest& r : requests) {
    EXPECT_TRUE(r.scenario.enabled());
  }

  sweep::SweepRunner serial(sweep::SweepOptions{.threads = 1});
  sweep::SweepRunner threaded(sweep::SweepOptions{.threads = 4});
  const auto a = serial.run(requests);
  const auto b = threaded.run(requests);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stats.event_checksum, b[i].stats.event_checksum) << i;
    EXPECT_DOUBLE_EQ(a[i].seconds, b[i].seconds) << i;
  }

  // The sweep report serializes the scenario and stays byte-identical
  // across thread counts.
  const std::string doc_a =
      sweep::sweep_report_json("t", requests, a, serial.summary());
  const std::string doc_b =
      sweep::sweep_report_json("t", requests, b, threaded.summary());
  EXPECT_EQ(doc_a, doc_b);
  EXPECT_NE(doc_a.find("\"scenario\""), std::string::npos);
  EXPECT_NE(doc_a.find("straggler"), std::string::npos);
}

// --- report documents ----------------------------------------------------

TEST(Scenario, RunReportCarriesScenarioOnlyWhenEnabled) {
  cluster::RunRequest request = quick_request("jacobi", 2, 2);
  const auto clean = cluster::run(request);
  const std::string bare =
      cluster::report_json(request.config, request.options, "jacobi", clean);
  EXPECT_EQ(bare.find("\"scenario\""), std::string::npos);
  const std::string with_disabled =
      cluster::report_json(request.config, request.options, "jacobi", clean,
                           nullptr, &request.scenario);
  // A disabled scenario must not perturb the document at all.
  EXPECT_EQ(bare, with_disabled);

  request.scenario = workloads::parse_scenario(
      "node-crash:node=0,t=1,down=5", "", "daly:size=4e9,bw=2e9,mtti=3600");
  const auto faulted = cluster::run(request);
  const std::string doc =
      cluster::report_json(request.config, request.options, "jacobi", faulted,
                           nullptr, &request.scenario);
  EXPECT_NE(doc.find("\"scenario\""), std::string::npos);
  EXPECT_NE(doc.find("\"node-crash\""), std::string::npos);
  EXPECT_NE(doc.find("\"daly_interval_seconds\""), std::string::npos);
  EXPECT_NE(doc.find("\"write_seconds\""), std::string::npos);
}

// --- attribution: injected time is explained with zero residual ----------

TEST(Scenario, InjectedTimeWalksTheCriticalPathExactly) {
  cluster::RunRequest request = quick_request("jacobi", 2, 2);
  request.scenario.faults.push_back(
      workloads::parse_fault_spec("node-crash:node=0,t=1,down=5"));
  prof::Profile profile;
  request.profile = &profile;
  const auto result = cluster::run(request);
  (void)result;

  const prof::CriticalPath& path = profile.attribution.path;
  // The walked path tiles [0, makespan] exactly — injected time included.
  SimTime sum = 0;
  for (std::size_t c = 0; c < prof::kCategoryCount; ++c) {
    sum += path.by_category[c];
  }
  EXPECT_EQ(sum, path.total);
  EXPECT_EQ(path.total, profile.makespan);
  // The crash's downtime dominates the injected share (5 s, and noise-free
  // otherwise), and it is attributed to the cpu lane.
  const SimTime injected =
      path.by_category[static_cast<std::size_t>(prof::Category::kInjected)];
  EXPECT_GE(injected, from_seconds(4.9));
  EXPECT_STREQ(prof::category_name(prof::Category::kInjected), "injected");
  EXPECT_STREQ(prof::category_lane(prof::Category::kInjected), "cpu");
}

// --- scenario replays (LB/Ser/Trf decomposition inputs) ------------------

TEST(Scenario, ReplayMeasuredMatchesTheMeteredRun) {
  cluster::RunRequest request = quick_request("jacobi", 2, 2);
  request.scenario = workloads::parse_scenario(
      "straggler:rank=1,slowdown=2", "", "");
  const auto metered = cluster::run(request);
  const auto runs = cluster::replay_scenarios(request);
  EXPECT_EQ(runs.measured.event_checksum, metered.stats.event_checksum);
  EXPECT_EQ(runs.measured.makespan, metered.stats.makespan);
  // The straggler's stretch is real work to the replay, so the ideal-
  // balance scenario (which equalizes compute) beats the measured run.
  EXPECT_LT(runs.ideal_balance.makespan, runs.measured.makespan);
}

// --- streamed Eq. 4 replays ----------------------------------------------

/// The three replays of `request` through the one-shot overload, which
/// records the measured run's ops and re-times that recording.
trace::ScenarioRuns recorded_replays(const cluster::RunRequest& request,
                                     sim::OpSource& source) {
  const auto workload = workloads::make_workload(request.workload);
  const cluster::ClusterCostModel cost(
      request.config.node, request.config.nodes, request.config.ranks,
      workload->cpu_profile());
  return trace::replay_scenarios(
      sim::Placement::block(request.config.ranks, request.config.nodes), cost,
      source, cluster::engine_config(request.config, request.options));
}

void expect_same_runs(const trace::ScenarioRuns& got,
                      const trace::ScenarioRuns& want,
                      const std::string& tag) {
  EXPECT_TRUE(got.measured == want.measured) << tag << ": measured";
  EXPECT_TRUE(got.ideal_network == want.ideal_network)
      << tag << ": ideal network";
  EXPECT_TRUE(got.ideal_balance == want.ideal_balance)
      << tag << ": ideal balance";
}

// An undecorated request streams each of its three runs from the workload
// and records nothing: every RunStats equals the recorded replays of the
// workload's whole programs.
TEST(StreamedReplays, EqualRecordedOnEveryWorkload) {
  for (const std::string& name : workloads::list()) {
    const auto workload = workloads::make_workload(name);
    for (const int nodes : {2, 4}) {
      const int ranks = sweep::natural_ranks(*workload, nodes);
      const cluster::RunRequest request = quick_request(name, nodes, ranks);
      const auto programs = workload->build(quick_context(nodes, ranks));
      sim::ProgramSource source(programs);
      expect_same_runs(cluster::replay_scenarios(request),
                       recorded_replays(request, source),
                       name + "@" + std::to_string(nodes));
    }
  }
}

// A decorated request's decorators sample the schedule they run under, so
// its ideal replays must re-time the op sequence the measured run
// committed.  Streamed ideals would re-sample the decorators on their own
// schedules: on cg@4 (8 ranks) under the checkpoint, ideal network would
// read 25.121 s instead of 31.121 s.
TEST(StreamedReplays, DecoratedRequestsReplayTheRecording) {
  const struct {
    const char* name;
    workloads::ScenarioConfig scenario;
  } cases[] = {
      {"daly checkpoint",
       workloads::parse_scenario("", "", "daly:size=4e9,bw=2e9,mtti=60")},
      {"os noise",
       workloads::parse_scenario("", "interval=0.05,duration=0.002,seed=7",
                                 "")},
      {"node crash",
       workloads::parse_scenario("node-crash:node=0,t=2,down=10", "", "")},
      {"straggler",
       workloads::parse_scenario("straggler:rank=1,slowdown=2.0", "", "")},
  };
  for (const char* name : {"cg", "jacobi"}) {
    const auto workload = workloads::make_workload(name);
    const int ranks = sweep::natural_ranks(*workload, 4);
    for (const auto& c : cases) {
      cluster::RunRequest request = quick_request(name, 4, ranks, 0.1);
      request.scenario = c.scenario;
      const std::unique_ptr<sim::OpSource> source = workloads::apply_scenarios(
          workload->stream(quick_context(4, ranks, 0.1)), c.scenario, 4);
      expect_same_runs(cluster::replay_scenarios(request),
                       recorded_replays(request, *source),
                       std::string(name) + "@4 " + c.name);
    }
  }
}

// --- trace round-trip for the new delay verb -----------------------------

TEST(TraceV1, DelayOpsRoundTrip) {
  std::vector<sim::Program> programs(1);
  programs[0].push_back(sim::phase_op(2));
  programs[0].push_back(sim::delay_op(0.25, 2));
  programs[0].push_back(sim::cpu_op(1e6, 1e5, 0, 0, 2));

  const auto path = std::filesystem::temp_directory_path() /
                    "soc_stream_test_delay.soctrace";
  write_text(path.string(), trace::export_programs(programs));
  const auto loaded = trace::load_trace(path.string());
  std::filesystem::remove(path);

  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_EQ(loaded[0].size(), 3u);
  EXPECT_EQ(loaded[0][1].kind, sim::OpKind::kDelay);
  EXPECT_DOUBLE_EQ(loaded[0][1].delay_seconds, 0.25);
  EXPECT_EQ(loaded[0][1].phase, 2);

  // Ops carrying a straggler's time_scale are a run-time decoration, not
  // a serializable program: export refuses them.
  programs[0][2].time_scale = 2.0;
  EXPECT_THROW(trace::export_programs(programs), Error);
}

}  // namespace
}  // namespace soc
