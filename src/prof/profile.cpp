#include "prof/profile.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <tuple>

#include "common/error.h"
#include "common/units.h"
#include "obs/json.h"
#include "sim/engine.h"

namespace soc::prof {

namespace {

// Local copy of cluster::checksum_hex — prof sits below cluster in the
// layering, so it cannot include cluster headers.
std::string checksum_hex(std::uint64_t v) {
  char buf[17] = "0000000000000000";
  char tmp[17];
  const auto r = std::to_chars(tmp, tmp + sizeof(tmp), v, 16);
  const auto len = static_cast<std::size_t>(r.ptr - tmp);
  for (std::size_t i = 0; i < len; ++i) buf[16 - len + i] = tmp[i];
  return std::string("0x") + buf;
}

// floor(num * 1e6 / den) in 128-bit integer arithmetic: the artifact's
// fixed-point ratios must not depend on floating-point contraction, which
// differs between the -O2 and sanitizer builds.
std::int64_t ratio_ppm(SimTime num, SimTime den) {
  SOC_CHECK(num >= 0 && den > 0, "ratio_ppm: bad operands");
  const __int128 v = static_cast<__int128>(num) * 1000000 / den;
  return static_cast<std::int64_t>(v);
}

SimTime rank_compute_ns(const sim::RankStats& rs) {
  SimTime total = 0;
  for (const auto& [phase, t] : rs.phase_compute) total += t;
  return total;
}

// Double mirror of core::decompose, fed by the single-pass projections
// instead of scenario replays (stdout only; never serialized).
Factors make_factors(const Profile& p) {
  // Same per-rank arithmetic as core::mean/max_compute_seconds.
  const double mean_c = to_seconds(p.compute_total) / p.ranks;
  const double max_c = to_seconds(p.compute_max);
  const double measured = to_seconds(p.makespan);
  const double ideal_net = to_seconds(p.ideal_network);
  SOC_CHECK(measured > 0.0, "zero-length run");
  SOC_CHECK(max_c > 0.0, "run performed no compute");
  Factors f;
  f.load_balance = mean_c / max_c;
  f.serialization = ideal_net > 0.0 ? max_c / ideal_net : 1.0;
  f.serialization = std::min(f.serialization, 1.0);
  f.transfer = std::min(ideal_net / measured, 1.0);
  f.efficiency = f.load_balance * f.serialization * f.transfer;
  return f;
}

void write_categories(obs::JsonWriter& w,
                      const std::array<SimTime, kCategoryCount>& by_category) {
  w.begin_object();
  for (std::size_t c = 0; c < kCategoryCount; ++c) {
    w.field(category_name(static_cast<Category>(c)),
            static_cast<std::int64_t>(by_category[c]));
  }
  w.end_object();
}

}  // namespace

Profile analyze(const RunTrace& trace) {
  Profile p;
  p.attribution = attribute(trace);
  p.usage = trace.usage;
  p.ranks = trace.placement.ranks;
  p.nodes = trace.placement.nodes;
  p.makespan = trace.stats.makespan;
  p.event_checksum = trace.stats.event_checksum;
  p.events_committed = trace.stats.events_committed;

  // Round trip: re-evaluating the measured scenario must land on the
  // recorded makespan to the nanosecond, or every projection is suspect.
  p.measured_eval = evaluate(trace, WhatIf{});
  SOC_CHECK(p.measured_eval == p.makespan,
            "profile: what-if evaluator failed to reproduce the measured run");
  p.evaluator_exact = true;

  WhatIf net;
  net.ideal_network = true;
  p.ideal_network = evaluate(trace, net);
  WhatIf balance;
  balance.compute_scale = sim::ideal_balance_scales(trace.stats);
  p.ideal_balance = evaluate(trace, balance);
  WhatIf lanes;
  lanes.uncontended = true;
  p.uncontended = evaluate(trace, lanes);

  p.compute_total = 0;
  p.compute_max = 0;
  for (const sim::RankStats& rs : trace.stats.ranks) {
    const SimTime c = rank_compute_ns(rs);
    p.compute_total += c;
    p.compute_max = std::max(p.compute_max, c);
  }
  p.factors = make_factors(p);
  return p;
}

std::string profile_json(const Profile& p) {
  const CriticalPath& path = p.attribution.path;
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-critical-path/v1");
  w.field("ranks", p.ranks);
  w.field("nodes", p.nodes);
  w.field("makespan_ns", static_cast<std::int64_t>(p.makespan));
  w.field("event_checksum", checksum_hex(p.event_checksum));
  w.field("events_committed", p.events_committed);
  w.newline();

  w.key("critical_path");
  w.begin_object();
  w.field("total_ns", static_cast<std::int64_t>(path.total));
  w.key("by_category");
  write_categories(w, path.by_category);
  w.newline();
  // Coarse lane rollup of the path (category_lane buckets).
  w.key("by_lane");
  w.begin_object();
  {
    // Ordered by first appearance in the Category enum.
    std::vector<std::pair<const char*, SimTime>> lanes;
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
      const char* lane = category_lane(static_cast<Category>(c));
      auto it = std::find_if(lanes.begin(), lanes.end(),
                             [&](const auto& e) {
                               return std::string_view(e.first) == lane;
                             });
      if (it == lanes.end()) {
        lanes.emplace_back(lane, path.by_category[c]);
      } else {
        it->second += path.by_category[c];
      }
    }
    for (const auto& [lane, ns] : lanes) {
      w.field(lane, static_cast<std::int64_t>(ns));
    }
  }
  w.end_object();
  w.newline();
  w.key("by_phase");
  w.begin_object();
  for (const auto& [phase, ns] : path.by_phase) {
    w.field(std::to_string(phase), static_cast<std::int64_t>(ns));
  }
  w.end_object();
  w.newline();
  w.key("by_rank");
  w.begin_array();
  for (const SimTime ns : path.by_rank) {
    w.value(static_cast<std::int64_t>(ns));
  }
  w.end_array();
  w.newline();
  w.field("steps", static_cast<std::int64_t>(path.steps.size()));
  // The widest steps (duration desc, then begin/rank asc for a total
  // deterministic order), capped so artifacts stay diffable.
  w.key("top_steps");
  w.begin_array();
  {
    std::vector<const PathStep*> top;
    top.reserve(path.steps.size());
    for (const PathStep& s : path.steps) top.push_back(&s);
    const auto wider = [](const PathStep* a, const PathStep* b) {
      const SimTime da = a->end - a->begin;
      const SimTime db = b->end - b->begin;
      if (da != db) return da > db;
      if (a->begin != b->begin) return a->begin < b->begin;
      return a->rank < b->rank;
    };
    const std::size_t keep = std::min<std::size_t>(top.size(), 32);
    std::partial_sort(top.begin(), top.begin() + static_cast<std::ptrdiff_t>(keep),
                      top.end(), wider);
    top.resize(keep);
    for (const PathStep* s : top) {
      w.newline();
      w.begin_object();
      w.field("category", category_name(s->category));
      w.field("rank", s->rank);
      w.field("phase", s->phase);
      w.field("begin_ns", static_cast<std::int64_t>(s->begin));
      w.field("end_ns", static_cast<std::int64_t>(s->end));
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  w.newline();

  w.key("rank_profiles");
  w.begin_array();
  for (const RankProfile& rp : p.attribution.rank_profiles) {
    w.newline();
    write_categories(w, rp.by_category);
  }
  w.end_array();
  w.newline();

  w.key("utilization");
  w.begin_object();
  for (std::size_t l = 0; l < sim::kLaneCount; ++l) {
    const auto lane = static_cast<sim::Lane>(l);
    w.key(obs::lane_metric_name(lane));
    w.begin_object();
    w.field("busy_ns", static_cast<std::int64_t>(p.usage.lane_busy(lane)));
    w.field("blocked_ns",
            static_cast<std::int64_t>(p.usage.lane_blocked(lane)));
    w.field("idle_ns", static_cast<std::int64_t>(
                           p.usage.idle(lane, p.ranks, p.nodes, p.makespan)));
    w.end_object();
  }
  w.end_object();
  w.newline();

  // Single-pass POP factors in ppm fixed point (floor division; the test
  // suite cross-checks these against the replay-based core::decompose).
  const std::int64_t lb_ppm =
      ratio_ppm(p.compute_total, static_cast<SimTime>(p.ranks) * p.compute_max);
  const std::int64_t ser_ppm =
      p.ideal_network > 0
          ? std::min<std::int64_t>(ratio_ppm(p.compute_max, p.ideal_network),
                                   1000000)
          : 1000000;
  const std::int64_t trf_ppm =
      std::min<std::int64_t>(ratio_ppm(p.ideal_network, p.makespan), 1000000);
  const std::int64_t eff_ppm = static_cast<std::int64_t>(
      static_cast<__int128>(lb_ppm) * ser_ppm / 1000000 * trf_ppm / 1000000);
  w.key("efficiency");
  w.begin_object();
  w.field("compute_total_ns", static_cast<std::int64_t>(p.compute_total));
  w.field("compute_max_ns", static_cast<std::int64_t>(p.compute_max));
  w.field("load_balance_ppm", lb_ppm);
  w.field("serialization_ppm", ser_ppm);
  w.field("transfer_ppm", trf_ppm);
  w.field("efficiency_ppm", eff_ppm);
  w.end_object();
  w.newline();

  w.key("what_if");
  w.begin_object();
  w.field("evaluator_exact", p.evaluator_exact);
  w.field("measured_ns", static_cast<std::int64_t>(p.measured_eval));
  w.field("ideal_network_ns", static_cast<std::int64_t>(p.ideal_network));
  w.field("ideal_network_speedup_ppm",
          p.ideal_network > 0 ? ratio_ppm(p.makespan, p.ideal_network)
                              : std::int64_t{0});
  w.field("ideal_balance_ns", static_cast<std::int64_t>(p.ideal_balance));
  w.field("ideal_balance_speedup_ppm",
          p.ideal_balance > 0 ? ratio_ppm(p.makespan, p.ideal_balance)
                              : std::int64_t{0});
  w.field("uncontended_ns", static_cast<std::int64_t>(p.uncontended));
  w.field("uncontended_speedup_ppm",
          p.uncontended > 0 ? ratio_ppm(p.makespan, p.uncontended)
                            : std::int64_t{0});
  w.end_object();
  w.end_object();
  w.newline();
  return w.str();
}

std::string folded_stacks(const Profile& p) {
  // Aggregate the walked path by (rank, phase, category); the map gives
  // the numeric order the flamegraph tooling expects to be stable.
  std::map<std::tuple<int, int, int>, SimTime> folded;
  for (const PathStep& s : p.attribution.path.steps) {
    folded[{s.rank, s.phase, static_cast<int>(s.category)}] += s.end - s.begin;
  }
  std::string out;
  for (const auto& [key, ns] : folded) {
    const auto& [rank, phase, category] = key;
    out += "rank ";
    out += std::to_string(rank);
    out += ";phase ";
    out += std::to_string(phase);
    out += ';';
    out += category_name(static_cast<Category>(category));
    out += ' ';
    out += std::to_string(ns);
    out += '\n';
  }
  return out;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  SOC_CHECK(out.good(), "cannot open output file: " + path);
  out << text;
  out.flush();
  SOC_CHECK(out.good(), "failed writing output file: " + path);
}

}  // namespace soc::prof
