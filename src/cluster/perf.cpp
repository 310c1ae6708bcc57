#include "cluster/perf.h"

#include <chrono>  // soclint: allow(banned-nondeterminism)
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>

#include "cluster/cost_model.h"
#include "cluster/report.h"
#include "common/alloc_stats.h"
#include "common/error.h"
#include "obs/json.h"
#include "prof/selfprof.h"
#include "sim/engine.h"
#include "sim/telemetry.h"
#include "sim/memo_cost.h"
#include "systems/machines.h"
#include "workloads/workload.h"

namespace soc::cluster {

std::vector<PerfCase> default_perf_cases(bool quick) {
  std::vector<PerfCase> cases;
  if (quick) {
    // Two small shapes CI can replay in seconds; one per figure family,
    // each with a sharded twin (shards capped at the node count) so the
    // smoke run covers the parallel engine and its speedup column.
    cases.push_back({"fig5/jacobi", "jacobi", 4, 4, false, 1, ""});
    cases.push_back(
        {"fig5/jacobi/4shards", "jacobi", 4, 4, false, 4, "fig5/jacobi"});
    cases.push_back({"fig6/cg", "cg", 4, 8, false, 1, ""});
    cases.push_back({"fig6/cg/4shards", "cg", 4, 8, false, 4, "fig6/cg"});
    return cases;
  }
  for (const char* w :
       {"hpl", "jacobi", "cloverleaf", "tealeaf2d", "tealeaf3d"}) {
    const std::string base = std::string("fig5/") + w;
    cases.push_back({base, w, 16, 16, false, 1, ""});
    cases.push_back({base + "/8shards", w, 16, 16, false, 8, base});
    cases.push_back({base + "/ideal-net", w, 16, 16, true, 1, ""});
  }
  for (const char* w : {"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}) {
    const std::string base = std::string("fig6/") + w;
    cases.push_back({base, w, 16, 32, false, 1, ""});
    cases.push_back({base + "/8shards", w, 16, 32, false, 8, base});
    cases.push_back({base + "/ideal-net", w, 16, 32, true, 1, ""});
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
  const std::uint64_t allocs_at_start = allocation_count();
  // Self-telemetry per case, keyed by name, for the scaling
  // decomposition pass below.  Captured by a dedicated untimed
  // repetition so the instrumented run never pollutes the throughput
  // numbers (and the timed reps stay telemetry-free, which is what the
  // zero-overhead-when-detached guarantee is about).
  std::map<std::string, sim::EngineTelemetry> telemetry;

  for (const PerfCase& c : cases) {
    const auto workload = workloads::make_workload(c.workload);
    workloads::BuildContext ctx;
    ctx.nodes = c.nodes;
    ctx.ranks = c.ranks;
    const auto programs = workload->build(ctx);
    const auto node = systems::jetson_tx1(net::NicKind::kTenGigabit);
    const ClusterCostModel cost(node, c.nodes, c.ranks,
                                workload->cpu_profile());
    const sim::MemoCostModel memo(cost, /*thread_safe=*/c.shards > 1);
    sim::EngineConfig engine_config;
    engine_config.bisection_bandwidth = node.switch_config.bisection_bandwidth;
    engine_config.shards = c.shards;
    sim::Scenario scenario;
    scenario.ideal_network = c.ideal_network;
    const auto placement = sim::Placement::block(c.ranks, c.nodes);

    PerfSample sample;
    sample.name = c.name;
    sample.reps = config.reps;
    sample.shards = c.shards;
    sample.baseline = c.baseline;
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
    if (config.explain_scaling) {
      sim::EngineTelemetry& tel = telemetry[c.name];
      sim::EngineConfig instrumented = engine_config;
      instrumented.telemetry = &tel;
      sim::Engine engine(placement, memo, instrumented, scenario);
      const auto stats = engine.run(programs);
      SOC_CHECK(stats.event_checksum == sample.checksum,
                "telemetry-attached rep diverged from the timed reps: " +
                    c.name);
    }

    report.total_events += rep_events;
    report.total_wall_seconds += sample.wall_seconds;
    report.samples.push_back(std::move(sample));
  }
  report.events_per_second =
      report.total_wall_seconds > 0.0
          ? report.total_events / report.total_wall_seconds
          : 0.0;
  report.alloc_counter_live = allocation_count() != allocs_at_start;
  // Resolve speedup rows against their named baselines.  A sharded case
  // must replay the identical committed stream, so the checksum match is
  // asserted here: a speedup over a *different* run would be meaningless.
  for (PerfSample& s : report.samples) {
    if (s.baseline.empty()) continue;
    const PerfSample* base = nullptr;
    for (const PerfSample& b : report.samples) {
      if (b.name == s.baseline) {
        base = &b;
        break;
      }
    }
    SOC_CHECK(base != nullptr,
              "perf case names unknown baseline: " + s.baseline);
    SOC_CHECK(base->checksum == s.checksum && base->events == s.events,
              "perf case diverged from its baseline's event stream: " +
                  s.name);
    s.speedup_vs_baseline = base->events_per_second > 0.0
                                ? s.events_per_second /
                                      base->events_per_second
                                : 0.0;
    if (config.explain_scaling) {
      const auto serial_it = telemetry.find(s.baseline);
      const auto sharded_it = telemetry.find(s.name);
      SOC_CHECK(serial_it != telemetry.end() &&
                    sharded_it != telemetry.end(),
                "missing telemetry for scaling decomposition: " + s.name);
      s.scaling =
          prof::explain_scaling(serial_it->second, sharded_it->second);
      s.has_scaling = true;
    }
  }
  return report;
}

std::string perf_report_json(const PerfReport& report) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-perf-report/v1");
  w.field("hardware_concurrency",
          static_cast<std::uint64_t>(report.hardware_concurrency));
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
    w.field("shards", s.shards);
    if (!s.baseline.empty()) {
      w.field("baseline", s.baseline);
      w.field("speedup_vs_baseline", s.speedup_vs_baseline);
    }
    if (s.has_scaling) {
      // Pre-rendered by the same JsonWriter machinery, so the sample
      // line stays a single line and the baseline loader's line scanner
      // keeps working.
      w.key("scaling");
      w.value_raw(prof::scaling_json(s.scaling));
    }
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
      continue;
    }
    std::string checksum;
    double events = 0.0;
    double eps = 0.0;
    double shards = 1.0;
    SOC_CHECK(extract_string(line, "checksum", &checksum) &&
                  extract_number(line, "events", &events) &&
                  extract_number(line, "events_per_second", &eps),
              "malformed perf baseline sample: " + line);
    s.events = static_cast<std::uint64_t>(events);
    s.checksum = std::strtoull(checksum.c_str(), nullptr, 16);
    s.events_per_second = eps;
    if (extract_number(line, "shards", &shards)) {
      s.shards = static_cast<int>(shards);
    }
    double speedup = 0.0;
    if (extract_string(line, "baseline", &s.baseline) &&
        extract_number(line, "speedup_vs_baseline", &speedup)) {
      s.speedup_vs_baseline = speedup;
    }
    samples.push_back(std::move(s));
  }
  SOC_CHECK(!samples.empty(), "perf baseline holds no samples: " + path);
  return baseline;
}

PerfDiff diff_perf_baseline(const PerfReport& report,
                            const PerfReport& baseline, double tolerance,
                            double speedup_tolerance) {
  SOC_CHECK(tolerance > 0.0 && tolerance <= 1.0,
            "baseline tolerance must be in (0, 1]");
  SOC_CHECK(speedup_tolerance > 0.0 && speedup_tolerance <= 1.0,
            "baseline speedup tolerance must be in (0, 1]");
  PerfDiff diff;
  std::string& failures = diff.failures;
  const bool same_host_threads =
      baseline.hardware_concurrency != 0 &&
      baseline.hardware_concurrency == report.hardware_concurrency;
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
    // A sharded row's throughput, and so its speedup, depends on how many
    // cores its workers get (a 4-shard row recorded on one core runs over
    // 10x slower on a 4-core host), so both are compared on equal core
    // counts only.
    if (b.shards > 1 && !same_host_threads) {
      diff.notes += "perf baseline: " + b.name +
                    " events/s and speedup gates skipped: baseline "
                    "hardware_concurrency " +
                    (baseline.hardware_concurrency == 0
                         ? std::string("unknown")
                         : std::to_string(baseline.hardware_concurrency)) +
                    ", this host " +
                    std::to_string(report.hardware_concurrency) + "\n";
      continue;
    }
    if (s->events_per_second < tolerance * b.events_per_second) {
      failures += "perf baseline: " + b.name + " throughput regressed: " +
                  std::to_string(s->events_per_second) + " < " +
                  std::to_string(tolerance) + " x " +
                  std::to_string(b.events_per_second) + " events/s\n";
    }
    // Sharded speedup rows also gate on parallel efficiency: both runs
    // divide by their own serial row, so this catches the sharded path
    // regressing relative to the serial path even when absolute events/s
    // differs from the baseline's.
    if (b.baseline.empty() || b.speedup_vs_baseline <= 0.0) continue;
    if (s->speedup_vs_baseline < speedup_tolerance * b.speedup_vs_baseline) {
      failures += "perf baseline: " + b.name + " speedup regressed: " +
                  std::to_string(s->speedup_vs_baseline) + " < " +
                  std::to_string(speedup_tolerance) + " x " +
                  std::to_string(b.speedup_vs_baseline) + " vs " +
                  b.baseline + "\n";
    }
  }
  if (matched == 0) {
    failures += "perf baseline: no case names in common with this run\n";
  }
  return diff;
}

}  // namespace soc::cluster
