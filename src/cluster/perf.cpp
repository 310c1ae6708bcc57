#include "cluster/perf.h"

#include <chrono>  // soclint: allow(banned-nondeterminism)
#include <cstdlib>
#include <fstream>
#include <thread>

#include "cluster/cost_model.h"
#include "cluster/report.h"
#include "common/alloc_stats.h"
#include "common/error.h"
#include "obs/json.h"
#include "sim/engine.h"
#include "sim/memo_cost.h"
#include "systems/machines.h"
#include "workloads/workload.h"

#ifndef SOC_COMPILER
#define SOC_COMPILER "unknown"
#endif
#ifndef SOC_BUILD_TYPE
#define SOC_BUILD_TYPE "unknown"
#endif

namespace soc::cluster {

std::vector<PerfCase> default_perf_cases(bool quick) {
  std::vector<PerfCase> cases;
  if (quick) {
    // Two small shapes CI can replay in seconds; one per figure family.
    cases.push_back({"fig5/jacobi", "jacobi", 4, 4, false});
    cases.push_back({"fig6/cg", "cg", 4, 8, false});
    return cases;
  }
  for (const char* w :
       {"hpl", "jacobi", "cloverleaf", "tealeaf2d", "tealeaf3d"}) {
    const std::string base = std::string("fig5/") + w;
    cases.push_back({base, w, 16, 16, false});
    cases.push_back({base + "/ideal-net", w, 16, 16, true});
  }
  for (const char* w : {"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}) {
    const std::string base = std::string("fig6/") + w;
    cases.push_back({base, w, 16, 32, false});
    cases.push_back({base + "/ideal-net", w, 16, 32, true});
  }
  return cases;
}

PerfReport measure_engine(const std::vector<PerfCase>& cases,
                          const PerfConfig& config) {
  SOC_CHECK(config.reps > 0, "perf harness needs at least one repetition");
  // Wall-clock timing is the one legitimately nondeterministic quantity
  // here; it never feeds back into simulated state.
  using Clock = std::chrono::steady_clock;  // soclint: allow(banned-nondeterminism)
  PerfReport report;
  report.hardware_concurrency = std::thread::hardware_concurrency();
  report.compiler = SOC_COMPILER;
  report.build_type = SOC_BUILD_TYPE;
  const std::uint64_t allocs_at_start = allocation_count();

  for (const PerfCase& c : cases) {
    const auto workload = workloads::make_workload(c.workload);
    workloads::BuildContext ctx;
    ctx.nodes = c.nodes;
    ctx.ranks = c.ranks;
    const auto programs = workload->build(ctx);
    const auto node = systems::jetson_tx1(net::NicKind::kTenGigabit);
    const ClusterCostModel cost(node, c.nodes, c.ranks,
                                workload->cpu_profile());
    const sim::MemoCostModel memo(cost);
    sim::EngineConfig engine_config;
    engine_config.bisection_bandwidth = node.switch_config.bisection_bandwidth;
    sim::Scenario scenario;
    scenario.ideal_network = c.ideal_network;
    const auto placement = sim::Placement::block(c.ranks, c.nodes);

    PerfSample sample;
    sample.name = c.name;
    sample.reps = config.reps;
    {
      // Warm-up: fills the memo cache and the engine pools, and records
      // the case's event count and checksum (identical every rep).
      sim::Engine engine(placement, memo, engine_config, scenario);
      const auto stats = engine.run(programs);
      sample.events = stats.events_committed;
      sample.checksum = stats.event_checksum;
    }
    const std::uint64_t allocs_before = allocation_count();
    const auto t0 = Clock::now();
    for (int r = 0; r < config.reps; ++r) {
      sim::Engine engine(placement, memo, engine_config, scenario);
      (void)engine.run(programs);
    }
    const auto t1 = Clock::now();
    sample.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    const double rep_events =
        static_cast<double>(sample.events) * config.reps;
    sample.events_per_second =
        sample.wall_seconds > 0.0 ? rep_events / sample.wall_seconds : 0.0;
    sample.allocs_per_event =
        rep_events > 0.0
            ? static_cast<double>(allocation_count() - allocs_before) /
                  rep_events
            : 0.0;
    sample.memo_hits = memo.hits();
    sample.memo_misses = memo.misses();

    report.total_events += rep_events;
    report.total_wall_seconds += sample.wall_seconds;
    report.samples.push_back(std::move(sample));
  }
  report.events_per_second =
      report.total_wall_seconds > 0.0
          ? report.total_events / report.total_wall_seconds
          : 0.0;
  report.alloc_counter_live = allocation_count() != allocs_at_start;
  return report;
}

std::string perf_report_json(const PerfReport& report) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-perf-report/v1");
  w.field("hardware_concurrency",
          static_cast<std::uint64_t>(report.hardware_concurrency));
  w.field("compiler", report.compiler);
  w.field("build_type", report.build_type);
  w.field("alloc_counter_live", report.alloc_counter_live);
  w.field("total_events", report.total_events);
  w.field("total_wall_seconds", report.total_wall_seconds);
  w.field("events_per_second", report.events_per_second);
  w.key("samples");
  w.begin_array();
  for (const PerfSample& s : report.samples) {
    w.newline();
    w.begin_object();
    w.field("name", s.name);
    w.field("events", static_cast<std::uint64_t>(s.events));
    w.field("checksum", checksum_hex(s.checksum));
    w.field("reps", s.reps);
    w.field("wall_seconds", s.wall_seconds);
    w.field("events_per_second", s.events_per_second);
    w.field("allocs_per_event", s.allocs_per_event);
    w.field("memo_hits", static_cast<std::uint64_t>(s.memo_hits));
    w.field("memo_misses", static_cast<std::uint64_t>(s.memo_misses));
    w.end_object();
  }
  w.newline();
  w.end_array();
  w.end_object();
  return w.str();
}

void write_perf_report(const std::string& path, const PerfReport& report) {
  std::ofstream out(path);
  SOC_CHECK(out.good(), "cannot open perf report path: " + path);
  out << perf_report_json(report) << "\n";
}

namespace {

// perf_report_json emits one sample object per line, so the baseline
// loader is a line scanner, not a JSON parser: it only needs to invert
// its own writer's stable formatting.
bool extract_string(const std::string& line, const std::string& key,
                    std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return false;
  *out = line.substr(start, end - start);
  return true;
}

bool extract_number(const std::string& line, const std::string& key,
                    double* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  *out = std::strtod(line.c_str() + at + needle.size(), nullptr);
  return true;
}

}  // namespace

PerfReport load_perf_baseline(const std::string& path) {
  std::ifstream in(path);
  SOC_CHECK(in.good(), "cannot open perf baseline: " + path);
  PerfReport baseline;
  std::vector<PerfSample>& samples = baseline.samples;
  std::string line;
  while (std::getline(in, line)) {
    PerfSample s;
    if (!extract_string(line, "name", &s.name)) {
      double threads = 0.0;
      if (extract_number(line, "hardware_concurrency", &threads)) {
        baseline.hardware_concurrency = static_cast<unsigned>(threads);
      }
      extract_string(line, "compiler", &baseline.compiler);
      extract_string(line, "build_type", &baseline.build_type);
      continue;
    }
    std::string checksum;
    double events = 0.0;
    double eps = 0.0;
    SOC_CHECK(extract_string(line, "checksum", &checksum) &&
                  extract_number(line, "events", &events) &&
                  extract_number(line, "events_per_second", &eps),
              "malformed perf baseline sample: " + line);
    s.events = static_cast<std::uint64_t>(events);
    s.checksum = std::strtoull(checksum.c_str(), nullptr, 16);
    s.events_per_second = eps;
    samples.push_back(std::move(s));
  }
  SOC_CHECK(!samples.empty(), "perf baseline holds no samples: " + path);
  return baseline;
}

std::string diff_perf_baseline(const PerfReport& report,
                               const PerfReport& baseline, double tolerance) {
  SOC_CHECK(tolerance > 0.0 && tolerance <= 1.0,
            "baseline tolerance must be in (0, 1]");
  std::string failures;
  int matched = 0;
  for (const PerfSample& b : baseline.samples) {
    const PerfSample* s = nullptr;
    for (const PerfSample& fresh : report.samples) {
      if (fresh.name == b.name) {
        s = &fresh;
        break;
      }
    }
    if (s == nullptr) continue;  // quick subset vs full baseline, etc.
    ++matched;
    if (s->events != b.events || s->checksum != b.checksum) {
      failures += "perf baseline: " + b.name +
                  " committed stream changed (events " +
                  std::to_string(b.events) + " -> " +
                  std::to_string(s->events) + ", checksum " +
                  checksum_hex(b.checksum) + " -> " +
                  checksum_hex(s->checksum) + ")\n";
    }
    if (s->events_per_second < tolerance * b.events_per_second) {
      failures += "perf baseline: " + b.name + " throughput regressed: " +
                  std::to_string(s->events_per_second) + " < " +
                  std::to_string(tolerance) + " x " +
                  std::to_string(b.events_per_second) + " events/s\n";
    }
  }
  if (matched == 0) {
    failures += "perf baseline: no case names in common with this run\n";
  }
  return failures;
}

}  // namespace soc::cluster
