// socperf: the measuring half of the soccluster host-performance benchmark.
//
// Runs one benchmark workload through the library's public entry points,
// exactly as `socbench` calls them, and prints one JSON document on stdout.
// perfbench/run.py builds this binary, checks every simulated result it
// prints against perfbench/reference.json, and turns the raw timings into
// the metrics named in BENCHMARK.json.
//
//   socperf --workload run-cg16 --mode measure --seconds 20 --seed 1
//   socperf --workload sweep-grid --mode trace --spans out.json ...
//   socperf --workload analyze-cg8 --mode setup
//
// Modes:
//   setup    builds the workload's inputs (registry lookup, machine model,
//            request construction) and exits; the printed setup_end_ns
//            (CLOCK_MONOTONIC) lets the caller time process start -> entry.
//   measure  repeats the untraced timed region until --seconds have passed.
//   trace    alternates one untraced and one traced iteration until
//            --seconds have passed.  The traced iteration spells the entry
//            point out call by call, one span per call into a module, and
//            all spans are written to --spans when the run ends.
//
// --quick shrinks every workload (cg on 4 and 2 nodes, a one-column sweep
// grid, problem size 0.05) for the benchmark's self-check.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "cluster/report.h"
#include "common/alloc_stats.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/thread_safety.h"
#include "core/efficiency.h"
#include "obs/json.h"
#include "power/power_model.h"
#include "prof/energy.h"
#include "prof/profile.h"
#include "prof/profiler.h"
#include "sim/memo_cost.h"
#include "sweep/grid.h"
#include "sweep/sweep.h"
#include "systems/machines.h"
#include "trace/replay.h"
#include "workloads/op_stream.h"
#include "workloads/workload.h"

#ifndef SOCPERF_COMPILER
#define SOCPERF_COMPILER "unknown"
#endif
#ifndef SOCPERF_BUILD_TYPE
#define SOCPERF_BUILD_TYPE "unknown"
#endif
#ifndef SOCPERF_ALLOC_HOOKS
#define SOCPERF_ALLOC_HOOKS 0
#endif

namespace {

using namespace soc;

/// The sweep's fan-out.  Part of the workload's definition, not of the
/// host: the stamp records hardware_concurrency so a result from a host
/// with fewer cores is never compared against one with four.
constexpr unsigned kSweepThreads = 4;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(t.tv_usec) * 1'000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

// ---------------------------------------------------------------- tracing

/// One recorded call into a layer.  `width` is the number of host lanes
/// the span occupies: 1 for a call on one thread, the fan-out for a
/// parallel region whose children run on worker threads.  A span's self
/// time is width x duration minus its children's width x duration, so the
/// self times of a tree sum exactly to its root's width x duration.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  long request = -1;
  int thread = 0;
  int width = 1;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::vector<std::pair<std::string, std::int64_t>> counts;
};

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

/// Spans of one traced iteration, kept in memory until the run ends.
class Tracer {
 public:
  int open(const char* name, int parent, long request, int width) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.thread = thread_index();
    span.width = width;
    const MutexLock lock(mutex_);
    span.id = static_cast<int>(spans_.size());
    span.start = now_ns();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void close(int id, std::vector<std::pair<std::string, std::int64_t>> counts) {
    const std::int64_t end = now_ns();
    const MutexLock lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = end;
    span.counts = std::move(counts);
  }

  std::vector<Span> take() {
    const MutexLock lock(mutex_);
    return std::move(spans_);
  }

 private:
  Mutex mutex_;  // SOC_SHARED(self)
  std::vector<Span> spans_ SOC_GUARDED_BY(mutex_);
};

/// A span open for the lifetime of the scope (or until end()).
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int parent, long request = -1,
        int width = 1)
      : tracer_(tracer), id_(tracer.open(name, parent, request, width)) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }
  void count(const char* name, std::int64_t value) {
    counts_.emplace_back(name, value);
  }
  void end() {
    if (open_) tracer_.close(id_, std::move(counts_));
    open_ = false;
  }

 private:
  Tracer& tracer_;
  int id_;
  bool open_ = true;
  std::vector<std::pair<std::string, std::int64_t>> counts_;
};

// ---------------------------------------------------------------- results

/// One simulated result the reference pins down.
struct Outcome {
  std::string id;
  std::uint64_t checksum = 0;
  std::uint64_t events = 0;
  double seconds = 0.0;
  std::optional<double> joules;
};

Outcome outcome(std::string id, const sim::RunStats& stats) {
  return {std::move(id), stats.event_checksum, stats.events_committed,
          stats.seconds(), std::nullopt};
}

Outcome outcome(std::string id, const cluster::RunResult& result) {
  Outcome o = outcome(std::move(id), result.stats);
  o.joules = result.joules;
  return o;
}

struct Iteration {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  /// Committed events of the workload's measured simulations.
  std::uint64_t events = 0;
  std::vector<Outcome> outcomes;
  std::string error;  ///< Non-empty when the timed region threw.
  std::vector<Span> spans;  ///< Traced iterations only.
  int root = -1;
};

/// Wall and CPU time of one timed region.
class Stopwatch {
 public:
  Stopwatch() : wall_(now_ns()), cpu_(cpu_ns()) {}
  void stop(Iteration& it) const {
    it.wall_ns = now_ns() - wall_;
    it.cpu_ns = cpu_ns() - cpu_;
  }

 private:
  std::int64_t wall_;
  std::int64_t cpu_;
};

// ------------------------------------------------- cluster::run, spelled out

std::string request_id(const cluster::RunRequest& r) {
  return r.workload + "/" + std::to_string(r.config.nodes) + "n/" +
         r.config.node.nic.name;
}

workloads::BuildContext build_context(const cluster::RunRequest& r) {
  workloads::BuildContext ctx;
  ctx.ranks = r.config.ranks;
  ctx.nodes = r.config.nodes;
  ctx.mem_model = r.options.mem_model;
  ctx.gpu_work_fraction = r.options.gpu_work_fraction;
  ctx.size_scale = r.options.size_scale;
  ctx.overlap_halos = r.options.overlap_halos;
  return ctx;
}

sim::EngineConfig engine_config(const cluster::RunRequest& r) {
  sim::EngineConfig engine = r.options.engine;
  if (engine.bisection_bandwidth == 0.0) {
    engine.bisection_bandwidth = r.config.node.switch_config.bisection_bandwidth;
  }
  return engine;
}

sim::Placement placement(const cluster::RunRequest& r) {
  return sim::Placement::block(r.config.ranks, r.config.nodes);
}

/// Workload generation: the request's workload, resolved as
/// cluster::resolve_workload does, lowered to per-rank programs.
struct Built {
  std::unique_ptr<workloads::Workload> owned;
  const workloads::Workload* workload = nullptr;
  std::vector<sim::Program> programs;
};

Built traced_build(Tracer& t, int parent, long request,
                   const cluster::RunRequest& r) {
  Scope s(t, "workloads.build", parent, request);
  Built b;
  b.workload = &cluster::resolve_workload(r, b.owned);
  b.programs = b.workload->build(build_context(r));
  std::int64_t ops = 0;
  for (const sim::Program& p : b.programs) {
    ops += static_cast<std::int64_t>(p.size());
  }
  s.count("ops", ops);
  return b;
}

std::unique_ptr<cluster::ClusterCostModel> traced_cost_model(
    Tracer& t, int parent, long request, const cluster::RunRequest& r,
    const workloads::Workload& w) {
  Scope s(t, "cost_model.build", parent, request);
  return std::make_unique<cluster::ClusterCostModel>(
      r.config.node, r.config.nodes, r.config.ranks, w.cpu_profile());
}

/// Engine::run over the memoized cost model, as cluster::run does it.
/// `observer` is the profiler on the analyze workload; `bare_ns` is then
/// the duration of the same run without it, measured outside the traced
/// region, so run.py can split the span's time into sim and obs.
sim::RunStats traced_engine(Tracer& t, int parent, long request,
                            const cluster::RunRequest& r,
                            const cluster::ClusterCostModel& cost,
                            std::vector<sim::Program> programs,
                            bool count_allocs,
                            sim::EngineObserver* observer = nullptr,
                            std::int64_t bare_ns = 0) {
  Scope s(t, "sim.engine", parent, request);
  const std::uint64_t allocs = allocation_count();
  const sim::MemoCostModel memo(cost);
  sim::Engine engine(placement(r), memo, engine_config(r));
  engine.set_observer(observer);
  // The stream the default Workload::stream() hands cluster::run, over
  // programs already built in their own span.
  workloads::ProgramWalkStream stream(std::move(programs));
  const sim::RunStats stats = engine.run(stream);
  s.count("events", static_cast<std::int64_t>(stats.events_committed));
  s.count("memo_hits", static_cast<std::int64_t>(memo.hits()));
  s.count("memo_misses", static_cast<std::int64_t>(memo.misses()));
  if (count_allocs) {
    s.count("allocs", static_cast<std::int64_t>(allocation_count() - allocs));
  }
  if (observer != nullptr) s.count("bare_ns", bare_ns);
  return stats;
}

/// Energy metering and counter synthesis, as cluster::run's meter() does.
cluster::RunResult traced_meter(Tracer& t, int parent, long request,
                                const cluster::RunRequest& r,
                                const cluster::ClusterCostModel& cost,
                                const sim::RunStats& stats) {
  cluster::RunResult result;
  result.stats = stats;
  {
    Scope s(t, "power.measure", parent, request);
    result.energy = power::measure_energy(stats, r.config.node.power,
                                          r.config.node.cpu_cores);
  }
  Scope s(t, "cluster.meter", parent, request);
  result.counters = cost.synthesize_counters(stats);
  result.seconds = stats.seconds();
  result.gflops = stats.flops_per_second() / 1e9;
  result.joules = result.energy.joules;
  result.average_watts = result.energy.average_watts;
  result.mflops_per_watt = result.energy.mflops_per_watt(stats.total_flops);
  return result;
}

/// cluster::run(request) with no observability sinks, one span per call.
/// `cost_for(workload)` supplies the cost model: built in place for a
/// single run, looked up in the sweep's memo for a sweep request.
template <typename CostFor>
cluster::RunResult traced_run(Tracer& t, int parent, long request,
                              const cluster::RunRequest& r, bool count_allocs,
                              CostFor cost_for) {
  cluster::validate(r.config);
  Built b = traced_build(t, parent, request, r);
  const cluster::ClusterCostModel& cost = cost_for(*b.workload);
  const sim::RunStats stats = traced_engine(
      t, parent, request, r, cost, std::move(b.programs), count_allocs);
  return traced_meter(t, parent, request, r, cost, stats);
}

/// Times one rendered document and records its size.
template <typename Render>
void traced_render(Tracer& t, int parent, Render render) {
  Scope s(t, "report.render", parent);
  const std::string doc = render();
  s.count("bytes", static_cast<std::int64_t>(doc.size()));
}

// --------------------------------------------------------------- workloads

/// One benchmark workload.  The constructor is the set-up the benchmark
/// times as setup_s; run() is the untraced timed region and traced() the
/// same work spelled out call by call.
class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  virtual Iteration run(std::size_t iteration) = 0;
  virtual Iteration traced(std::size_t iteration, Tracer& tracer) = 0;
  /// Host lanes the traced root span occupies.
  virtual int lanes() const { return 1; }
  /// The SweepRunner's own cost-model counters from the last run().
  virtual std::pair<std::size_t, std::size_t> cost_model_counts() const {
    return {0, 0};
  }
};

cluster::RunOptions base_options(bool quick) {
  cluster::RunOptions options;
  if (quick) options.size_scale = 0.05;
  return options;
}

/// `socbench run --workload cg --nodes 16`: one serial simulation, plus
/// the run report a `--report-json` caller renders.
class RunCg16 final : public BenchWorkload {
 public:
  explicit RunCg16(bool quick) : workload_(workloads::make_workload("cg")) {
    request_.workload = workload_->name();
    request_.workload_ref = workload_.get();
    const int nodes = quick ? 4 : 16;
    request_.config = cluster::ClusterConfig{
        systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
        sweep::natural_ranks(*workload_, nodes)};
    request_.options = base_options(quick);
  }

  Iteration run(std::size_t) override {
    Iteration it;
    const Stopwatch watch;
    const cluster::RunResult result = cluster::run(request_);
    const std::string report = cluster::report_json(
        request_.config, request_.options, request_.workload, result);
    watch.stop(it);
    it.events = result.stats.events_committed;
    it.outcomes.push_back(outcome(request_id(request_), result));
    return it;
  }

  Iteration traced(std::size_t, Tracer& t) override {
    Iteration it;
    Scope root(t, "bench", -1);
    std::unique_ptr<cluster::ClusterCostModel> cost;
    const cluster::RunResult result = traced_run(
        t, root.id(), -1, request_, /*count_allocs=*/true,
        [&](const workloads::Workload& w) -> const cluster::ClusterCostModel& {
          cost = traced_cost_model(t, root.id(), -1, request_, w);
          return *cost;
        });
    traced_render(t, root.id(), [&] {
      return cluster::report_json(request_.config, request_.options,
                                  request_.workload, result);
    });
    root.end();
    it.root = root.id();
    it.events = result.stats.events_committed;
    it.outcomes.push_back(outcome(request_id(request_), result));
    return it;
  }

 private:
  std::unique_ptr<workloads::Workload> workload_;
  cluster::RunRequest request_;
};

/// The SweepRunner's cost-model memo, rebuilt so the traced sweep can time
/// each build: requests agreeing on (node config, shape, CPU profile)
/// share one model, built once outside the lock.
class CostMemo {
 public:
  const cluster::ClusterCostModel& get(Tracer& t, int parent, long request,
                                       const cluster::RunRequest& r,
                                       const workloads::Workload& w) {
    const arch::WorkloadProfile profile = w.cpu_profile();
    Entry* entry = nullptr;
    {
      const MutexLock lock(mutex_);
      for (Entry& e : entries_) {
        if (e.nodes == r.config.nodes && e.ranks == r.config.ranks &&
            e.profile == profile && e.node == r.config.node) {
          entry = &e;
          ++hits_;
          break;
        }
      }
      if (entry == nullptr) {
        entry = &entries_.emplace_back();
        entry->node = r.config.node;
        entry->nodes = r.config.nodes;
        entry->ranks = r.config.ranks;
        entry->profile = profile;
      }
    }
    std::call_once(entry->once, [&] {
      entry->model = traced_cost_model(t, parent, request, r, w);
    });
    return *entry->model;
  }

  std::size_t hits() const {
    const MutexLock lock(mutex_);
    return hits_;
  }

 private:
  struct Entry {
    systems::NodeConfig node;
    int nodes = 0;
    int ranks = 0;
    arch::WorkloadProfile profile;
    std::once_flag once;  // SOC_SHARED(once) — call_once publishes `model`
    std::unique_ptr<cluster::ClusterCostModel> model;
  };

  mutable Mutex mutex_;  // SOC_SHARED(self)
  std::list<Entry> entries_ SOC_GUARDED_BY(mutex_);  ///< Stable addresses.
  std::size_t hits_ SOC_GUARDED_BY(mutex_) = 0;
};

/// `socbench sweep --workload all --nodes 2,4,8,16 --nic both` on four
/// threads.  The seed shuffles the order the requests are submitted in
/// (each iteration draws its own order from it); results land by input
/// index, so every checksum stays put.
class SweepGrid final : public BenchWorkload {
 public:
  SweepGrid(bool quick, std::uint64_t seed) : rng_(seed) {
    sweep::Grid grid;
    grid.workloads = workloads::list();
    if (quick) {
      grid.nodes = {2};
      grid.nics = {net::NicKind::kTenGigabit};
    } else {
      grid.nodes = {2, 4, 8, 16};
      grid.nics = {net::NicKind::kGigabit, net::NicKind::kTenGigabit};
    }
    grid.base = base_options(quick);
    requests_ = grid.requests();
    order_.resize(requests_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    shuffle();
  }

  int lanes() const override { return static_cast<int>(kSweepThreads); }

  std::pair<std::size_t, std::size_t> cost_model_counts() const override {
    return counts_;
  }

  Iteration run(std::size_t iteration) override {
    if (iteration > 0) shuffle();
    Iteration it;
    const Stopwatch watch;
    sweep::SweepOptions options;
    options.threads = kSweepThreads;
    options.label = "socbench sweep";
    sweep::SweepRunner runner(options);
    const std::vector<cluster::RunResult> results = runner.run(shuffled_);
    const sweep::SweepSummary summary = runner.summary();
    const std::string report =
        sweep::sweep_report_json(options.label, shuffled_, results, summary);
    watch.stop(it);
    counts_ = {summary.cost_models_built, summary.cost_model_hits};
    collect(it, results);
    return it;
  }

  Iteration traced(std::size_t iteration, Tracer& t) override {
    if (iteration > 0) shuffle();
    Iteration it;
    const int lanes = static_cast<int>(kSweepThreads);
    Scope root(t, "bench", -1, -1, lanes);
    std::vector<cluster::RunResult> results(shuffled_.size());
    CostMemo memo;
    {
      Scope fanout(t, "sweep.run", root.id(), -1, lanes);
      parallel_for(
          shuffled_.size(),
          [&](std::size_t i) {
            const long id = static_cast<long>(order_[i]);
            const cluster::RunRequest& r = shuffled_[i];
            Scope request(t, "sweep.request", fanout.id(), id);
            // The process-wide allocation counter cannot tell the four
            // threads apart, so allocations are counted on serial
            // workloads only.
            results[i] = traced_run(
                t, request.id(), id, r, /*count_allocs=*/false,
                [&](const workloads::Workload& w)
                    -> const cluster::ClusterCostModel& {
                  return memo.get(t, request.id(), id, r, w);
                });
          },
          kSweepThreads);
      fanout.count("cost_model_hits", static_cast<std::int64_t>(memo.hits()));
    }
    sweep::SweepSummary summary;
    summary.runs = results.size();
    summary.cost_model_hits = memo.hits();
    summary.cost_models_built = results.size() - memo.hits();
    for (const cluster::RunResult& r : results) {
      summary.simulated_seconds += r.seconds;
    }
    traced_render(t, root.id(), [&] {
      return sweep::sweep_report_json("socbench sweep", shuffled_, results,
                                      summary);
    });
    root.end();
    it.root = root.id();
    collect(it, results);
    return it;
  }

 private:
  /// Draws a fresh submission order; shuffled_[i] is requests_[order_[i]].
  /// The seed shuffles the requests, which are then grouped (stably) by
  /// node count, largest first.  Run time grows with node count, so the
  /// short runs fill the tail of the fan-out: without the grouping the
  /// makespan hinges on whether the two cg@16 runs (12% of the sweep's
  /// CPU time) happen to be drawn last, which moved wall_s by up to 40%
  /// from one order to the next.
  void shuffle() {
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.next_below(i)]);
    }
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return requests_[a].config.nodes >
                              requests_[b].config.nodes;
                     });
    shuffled_.clear();
    for (const std::size_t i : order_) shuffled_.push_back(requests_[i]);
  }

  /// Outcomes in grid order, whatever order the requests ran in.
  void collect(Iteration& it, const std::vector<cluster::RunResult>& results) {
    std::vector<const cluster::RunResult*> by_input(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      by_input[order_[i]] = &results[i];
    }
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      it.events += by_input[i]->stats.events_committed;
      it.outcomes.push_back(outcome(request_id(requests_[i]), *by_input[i]));
    }
  }

  Rng rng_;
  std::vector<cluster::RunRequest> requests_;
  std::vector<std::size_t> order_;
  std::vector<cluster::RunRequest> shuffled_;
  std::pair<std::size_t, std::size_t> counts_{0, 0};
};

/// The fig6 scalability analysis of cg on 8 nodes: `socbench decompose`
/// (three trace replays + the Eq. 4 decomposition) followed by `socbench
/// explain --energy` (a profiled run with critical path and energy
/// attribution, rendered as the energy-attribution document).
class AnalyzeCg8 final : public BenchWorkload {
 public:
  explicit AnalyzeCg8(bool quick)
      : workload_(workloads::make_workload("cg")) {
    request_.workload = workload_->name();
    request_.workload_ref = workload_.get();
    const int nodes = quick ? 2 : 8;
    request_.config = cluster::ClusterConfig{
        systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
        sweep::natural_ranks(*workload_, nodes)};
    request_.options = base_options(quick);
  }

  Iteration run(std::size_t) override {
    Iteration it;
    const Stopwatch watch;
    const trace::ScenarioRuns runs = cluster::replay_scenarios(request_);
    const core::EfficiencyDecomposition d = core::decompose(runs);
    cluster::RunRequest profiled = request_;
    prof::Profile profile;
    profiled.profile = &profile;
    const cluster::RunResult result = cluster::run(profiled);
    SOC_CHECK(profile.has_energy, "profile carries no energy attribution");
    const std::string doc = prof::energy_json(profile.energy);
    watch.stop(it);
    record(it, runs, d, result);
    return it;
  }

  Iteration traced(std::size_t, Tracer& t) override {
    Iteration it;
    const std::int64_t bare_ns = bare_engine_ns();
    Scope root(t, "bench", -1);
    const int top = root.id();
    cluster::validate(request_.config);
    Built replayed = traced_build(t, top, -1, request_);
    const auto replay_cost =
        traced_cost_model(t, top, -1, request_, *replayed.workload);
    trace::ScenarioRuns runs;
    {
      Scope s(t, "trace.replay", top);
      workloads::ProgramWalkStream stream(std::move(replayed.programs));
      runs = trace::replay_scenarios(placement(request_), *replay_cost, stream,
                                     engine_config(request_));
      s.count("events", static_cast<std::int64_t>(
                            runs.measured.events_committed +
                            runs.ideal_network.events_committed +
                            runs.ideal_balance.events_committed));
    }
    core::EfficiencyDecomposition d;
    {
      Scope s(t, "core.decompose", top);
      d = core::decompose(runs);
    }

    Built b = traced_build(t, top, -1, request_);
    const auto cost = traced_cost_model(t, top, -1, request_, *b.workload);
    prof::Profiler profiler;
    const sim::RunStats stats =
        traced_engine(t, top, -1, request_, *cost, std::move(b.programs),
                      /*count_allocs=*/true, &profiler, bare_ns);
    const cluster::RunResult result =
        traced_meter(t, top, -1, request_, *cost, stats);
    prof::Profile profile;
    {
      Scope s(t, "prof.analyze", top);
      profile = prof::analyze(profiler.trace());
      s.count("trace_ops",
              static_cast<std::int64_t>(profiler.trace().ops.size()));
    }
    {
      Scope s(t, "prof.energy", top);
      profile.energy = prof::attribute_energy(profiler.trace(),
                                              request_.config.node.power,
                                              request_.config.node.cpu_cores);
      profile.has_energy = true;
    }
    traced_render(t, top, [&] { return prof::energy_json(profile.energy); });
    root.end();
    it.root = top;
    record(it, runs, d, result);
    return it;
  }

 private:
  /// The profiled run's engine call without the profiler attached, timed
  /// outside the traced region (its inputs are built here too).
  std::int64_t bare_engine_ns() const {
    const cluster::ClusterCostModel cost(
        request_.config.node, request_.config.nodes, request_.config.ranks,
        workload_->cpu_profile());
    workloads::ProgramWalkStream stream(
        workload_->build(build_context(request_)));
    const sim::MemoCostModel memo(cost);
    sim::Engine engine(placement(request_), memo, engine_config(request_));
    const std::int64_t start = now_ns();
    engine.run(stream);
    return now_ns() - start;
  }

  void record(Iteration& it, const trace::ScenarioRuns& runs,
              const core::EfficiencyDecomposition& d,
              const cluster::RunResult& result) const {
    const std::string id = request_id(request_);
    it.events = result.stats.events_committed;
    it.outcomes.push_back(outcome(id + "/measured", runs.measured));
    it.outcomes.push_back(outcome(id + "/ideal_network", runs.ideal_network));
    it.outcomes.push_back(outcome(id + "/ideal_balance", runs.ideal_balance));
    // The decomposition is a pure function of the three replays; pin its
    // efficiency too, as the "seconds" of a pseudo-result.
    Outcome eta{id + "/eta", 0, 0, d.efficiency, std::nullopt};
    it.outcomes.push_back(eta);
    it.outcomes.push_back(outcome(id + "/profiled", result));
  }

  std::unique_ptr<workloads::Workload> workload_;
  cluster::RunRequest request_;
};

std::unique_ptr<BenchWorkload> make(const std::string& name, bool quick,
                                    std::uint64_t seed) {
  if (name == "run-cg16") return std::make_unique<RunCg16>(quick);
  if (name == "sweep-grid") return std::make_unique<SweepGrid>(quick, seed);
  if (name == "analyze-cg8") return std::make_unique<AnalyzeCg8>(quick);
  throw Error("unknown workload '" + name +
              "' (use run-cg16, sweep-grid or analyze-cg8)");
}

// ------------------------------------------------------------------ output

void write_outcomes(obs::JsonWriter& w, const std::vector<Outcome>& outcomes) {
  w.key("outcomes");
  w.begin_array();
  for (const Outcome& o : outcomes) {
    w.begin_object();
    w.field("id", std::string_view(o.id));
    w.field("checksum", std::string_view(cluster::checksum_hex(o.checksum)));
    w.field("events", static_cast<std::uint64_t>(o.events));
    w.field("seconds", o.seconds);
    if (o.joules) w.field("joules", *o.joules);
    w.end_object();
  }
  w.end_array();
}

void write_iteration(obs::JsonWriter& w, const Iteration& it) {
  w.newline();
  w.begin_object();
  w.field("wall_ns", static_cast<std::int64_t>(it.wall_ns));
  w.field("cpu_ns", static_cast<std::int64_t>(it.cpu_ns));
  w.field("events", static_cast<std::uint64_t>(it.events));
  if (!it.error.empty()) w.field("error", std::string_view(it.error));
  if (it.root >= 0) w.field("root", it.root);
  write_outcomes(w, it.outcomes);
  w.end_object();
}

void write_spans(const std::string& path, const std::vector<Iteration>& traced) {
  obs::JsonWriter w;
  w.begin_array();
  for (std::size_t i = 0; i < traced.size(); ++i) {
    for (const Span& s : traced[i].spans) {
      w.newline();
      w.begin_object();
      w.field("iteration", static_cast<std::int64_t>(i));
      w.field("id", s.id);
      w.field("name", std::string_view(s.name));
      w.field("parent", s.parent);
      w.field("request", static_cast<std::int64_t>(s.request));
      w.field("thread", s.thread);
      w.field("width", s.width);
      w.field("start_ns", static_cast<std::int64_t>(s.start));
      w.field("end_ns", static_cast<std::int64_t>(s.end));
      w.key("counts");
      w.begin_object();
      for (const auto& [name, value] : s.counts) {
        w.field(name, static_cast<std::int64_t>(value));
      }
      w.end_object();
      w.end_object();
    }
  }
  w.newline();
  w.end_array();
  std::ofstream f(path, std::ios::binary);
  f << w.str() << '\n';
  SOC_CHECK(f.good(), "cannot write spans to " + path);
}

/// Runs one iteration, turning a throw into a recorded error so the
/// caller counts the iteration's simulations as failed.
template <typename Body>
Iteration guarded(Body body) {
  try {
    return body();
  } catch (const std::exception& e) {
    Iteration it;
    it.error = e.what();
    return it;
  }
}

struct Args {
  std::string workload;
  std::string mode = "measure";
  double seconds = 1.0;
  std::uint64_t seed = 1;
  bool quick = false;
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      a.quick = true;
      continue;
    }
    SOC_CHECK(i + 1 < argc, "missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--mode") {
      a.mode = v;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      throw Error("unknown flag " + flag);
    }
  }
  SOC_CHECK(a.mode == "setup" || a.mode == "measure" || a.mode == "trace",
            "--mode must be setup, measure or trace");
  SOC_CHECK(a.mode != "trace" || !a.spans.empty(), "trace mode needs --spans");
  return a;
}

int run_main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::unique_ptr<BenchWorkload> workload =
      make(args.workload, args.quick, args.seed);
  const std::int64_t setup_end = now_ns();

  std::vector<Iteration> untraced;
  std::vector<Iteration> traced;
  const std::int64_t budget =
      static_cast<std::int64_t>(args.seconds * 1e9);
  if (args.mode != "setup") {
    do {
      const std::size_t k = untraced.size();
      untraced.push_back(guarded([&] { return workload->run(k); }));
      if (args.mode == "trace") {
        Tracer tracer;
        Iteration it = guarded([&] { return workload->traced(k, tracer); });
        it.spans = tracer.take();
        if (it.root >= 0) {
          const Span& root = it.spans[static_cast<std::size_t>(it.root)];
          it.wall_ns = root.end - root.start;
        }
        traced.push_back(std::move(it));
      }
    } while (now_ns() - setup_end < budget);
  }
  if (!traced.empty()) write_spans(args.spans, traced);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  obs::JsonWriter w;
  w.begin_object();
  w.field("workload", std::string_view(args.workload));
  w.field("mode", std::string_view(args.mode));
  w.field("seed", static_cast<std::uint64_t>(args.seed));
  w.field("quick", args.quick);
  w.key("stamp");
  w.begin_object();
  w.field("compiler", SOCPERF_COMPILER);
  w.field("build_type", SOCPERF_BUILD_TYPE);
  w.field("hardware_concurrency",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.field("alloc_hooks", SOCPERF_ALLOC_HOOKS != 0);
  w.end_object();
  w.field("setup_end_ns", static_cast<std::int64_t>(setup_end));
  w.field("lanes", workload->lanes());
  w.field("peak_rss_kb", static_cast<std::int64_t>(ru.ru_maxrss));
  const auto [built, hits] = workload->cost_model_counts();
  w.field("cost_models_built", static_cast<std::uint64_t>(built));
  w.field("cost_model_hits", static_cast<std::uint64_t>(hits));
  w.key("untraced");
  w.begin_array();
  for (const Iteration& it : untraced) write_iteration(w, it);
  w.end_array();
  w.key("traced");
  w.begin_array();
  for (const Iteration& it : traced) write_iteration(w, it);
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "socperf: %s\n", e.what());
    return 2;
  }
}
