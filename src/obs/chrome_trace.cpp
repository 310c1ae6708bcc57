#include "obs/chrome_trace.h"

#include "obs/json.h"
#include "sim/op.h"

namespace soc::obs {

namespace {

/// Renders integer nanoseconds as fixed-point microseconds ("12.345").
/// Integer math end to end, so the rendering is platform-independent.
std::string trace_micros(std::int64_t ns) {
  const auto frac = static_cast<int>(ns % 1000);
  std::string out = std::to_string(ns / 1000);
  out += '.';
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + (frac / 10) % 10);
  out += static_cast<char>('0' + frac % 10);
  return out;
}

/// Emits one Chrome `M` metadata event naming a process (tid < 0) or a
/// thread row.
void trace_meta_event(JsonWriter& w, const char* name, int pid, int tid,
                      const std::string& arg_name) {
  w.begin_object();
  w.field("name", name);
  w.field("ph", "M");
  w.field("pid", pid);
  if (tid >= 0) w.field("tid", tid);
  w.key("args");
  w.begin_object();
  w.field("name", std::string_view(arg_name));
  w.end_object();
  w.end_object();
  w.newline();
}

}  // namespace

void ChromeTraceRecorder::on_run_begin(const sim::Placement& placement,
                                       const sim::EngineConfig& /*config*/) {
  placement_ = placement;
  spans_.clear();
  messages_.clear();
}

void ChromeTraceRecorder::on_span(const sim::SpanRecord& span) {
  spans_.push_back(span);
}

void ChromeTraceRecorder::on_message(const sim::MessageRecord& message) {
  messages_.push_back(message);
}

std::string ChromeTraceRecorder::json() const {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  w.newline();
  // Name every process (node) and thread (rank row + resource lanes).
  for (int node = 0; node < placement_.nodes; ++node) {
    trace_meta_event(w, "process_name", node, -1, "node " + std::to_string(node));
    for (const sim::Lane lane : {sim::Lane::kGpu, sim::Lane::kCopy,
                                 sim::Lane::kNicTx, sim::Lane::kNicRx}) {
      trace_meta_event(w, "thread_name", node,
                 kLaneTidBase + static_cast<int>(lane),
                 sim::lane_name(lane));
    }
  }
  for (int rank = 0; rank < placement_.ranks; ++rank) {
    trace_meta_event(w, "thread_name", placement_.node_of[rank], rank,
               "rank " + std::to_string(rank));
  }
  for (const sim::SpanRecord& s : spans_) {
    const int tid = s.lane == sim::Lane::kCpu
                        ? s.rank
                        : kLaneTidBase + static_cast<int>(s.lane);
    w.begin_object();
    w.field("name",
            sim::op_kind_name(static_cast<sim::OpKind>(s.kind)));
    w.field("cat", sim::lane_name(s.lane));
    w.field("ph", "X");
    w.field("pid", s.node);
    w.field("tid", tid);
    w.key("ts");
    w.value_raw(trace_micros(s.start));
    w.key("dur");
    w.value_raw(trace_micros(s.end - s.start));
    w.key("args");
    w.begin_object();
    w.field("rank", s.rank);
    w.field("phase", s.phase);
    w.field("bytes", static_cast<std::int64_t>(s.bytes));
    w.field("queue_wait_ns", s.queue_wait);
    w.field("fabric_wait_ns", s.fabric_wait);
    w.end_object();
    w.end_object();
    w.newline();
  }
  // Flow arrows for matched inter-node messages: `s` on the sender's rank
  // row at transfer start, `f` (binding point "e": attach to the
  // enclosing slice) on the receiver's row at transfer end.  Ids are the
  // message's commit index, so identical runs render identical bytes.
  std::int64_t flow_id = 0;
  for (const sim::MessageRecord& m : messages_) {
    if (!m.inter_node) {
      ++flow_id;
      continue;
    }
    const int src_node = placement_.node_of[static_cast<std::size_t>(m.src_rank)];
    const int dst_node = placement_.node_of[static_cast<std::size_t>(m.dst_rank)];
    w.begin_object();
    w.field("name", m.eager ? "eager" : "rendezvous");
    w.field("cat", "msg");
    w.field("ph", "s");
    w.field("id", flow_id);
    w.field("pid", src_node);
    w.field("tid", m.src_rank);
    w.key("ts");
    w.value_raw(trace_micros(m.start));
    w.key("args");
    w.begin_object();
    w.field("bytes", static_cast<std::int64_t>(m.bytes));
    w.field("tag", m.tag);
    w.end_object();
    w.end_object();
    w.newline();
    w.begin_object();
    w.field("name", m.eager ? "eager" : "rendezvous");
    w.field("cat", "msg");
    w.field("ph", "f");
    w.field("bp", "e");
    w.field("id", flow_id);
    w.field("pid", dst_node);
    w.field("tid", m.dst_rank);
    w.key("ts");
    w.value_raw(trace_micros(m.end));
    w.key("args");
    w.begin_object();
    w.field("bytes", static_cast<std::int64_t>(m.bytes));
    w.field("tag", m.tag);
    w.end_object();
    w.end_object();
    w.newline();
    ++flow_id;
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

}  // namespace soc::obs
