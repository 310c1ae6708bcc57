#include "prof/profile.h"

#include <algorithm>
#include <array>
#include <map>
#include <tuple>
#include <utility>

#include "obs/json.h"
#include "sim/engine.h"

namespace soc::prof {

namespace {

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
  p.usage = trace.usage;
  p.ranks = trace.placement.ranks;
  p.nodes = trace.placement.nodes;
  p.makespan = trace.stats.makespan;
  p.event_checksum = trace.stats.event_checksum;
  p.events_committed = trace.stats.events_committed;
  p.attribution = attribute(trace);
  return p;
}

std::string profile_json(const Profile& p) {
  const CriticalPath& path = p.attribution.path;
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-critical-path/v2");
  w.field("ranks", p.ranks);
  w.field("nodes", p.nodes);
  w.field("makespan_ns", static_cast<std::int64_t>(p.makespan));
  w.field("event_checksum", obs::checksum_hex(p.event_checksum));
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

}  // namespace soc::prof
