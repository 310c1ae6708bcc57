#include "prof/critical_path.h"

#include <algorithm>

#include "common/error.h"

namespace soc::prof {

const char* category_name(Category category) {
  switch (category) {
    case Category::kCompute: return "compute";
    case Category::kGpuWait: return "gpu-wait";
    case Category::kGpuBusy: return "gpu-busy";
    case Category::kCopyWait: return "copy-wait";
    case Category::kCopyBusy: return "copy-busy";
    case Category::kSendOverhead: return "send-overhead";
    case Category::kRecvOverhead: return "recv-overhead";
    case Category::kNicWait: return "nic-wait";
    case Category::kTransfer: return "transfer";
    case Category::kBlockedSend: return "blocked-send";
    case Category::kBlockedRecv: return "blocked-recv";
    case Category::kBlockedWait: return "blocked-wait";
    case Category::kInjected: return "injected";
    case Category::kIdle: return "idle";
    case Category::kCount: break;
  }
  return "?";
}

const char* category_lane(Category category) {
  switch (category) {
    case Category::kCompute:
    case Category::kSendOverhead:
    case Category::kRecvOverhead:
    case Category::kInjected:
      return "cpu";
    case Category::kGpuWait:
    case Category::kGpuBusy:
      return "gpu";
    case Category::kCopyWait:
    case Category::kCopyBusy:
      return "copy";
    case Category::kNicWait:
    case Category::kTransfer:
      return "nic";
    case Category::kBlockedSend:
    case Category::kBlockedRecv:
    case Category::kBlockedWait:
      return "blocked";
    case Category::kIdle:
      return "idle";
    case Category::kCount:
      break;
  }
  return "?";
}

namespace {

struct Segment {
  SimTime begin = 0;
  SimTime end = 0;
  Category category = Category::kCompute;
  int phase = 0;
  int jump = -1;  ///< Blocked segments: rank whose dispatch ended the wait.
};

// One op window's segments, in time order; a message chain is the
// longest at four.
struct Segments {
  std::array<Segment, 4> items;
  std::size_t size = 0;

  const Segment* begin() const { return items.data(); }
  const Segment* end() const { return items.data() + size; }
  void emit(SimTime b, SimTime e, Category category, int phase,
            int jump = -1) {
    if (e > b) items[size++] = Segment{b, e, category, phase, jump};
  }
};

// Decomposes a message-completed window [b0, c): parked until the partner
// arrived at p, the committed transfer queued until q, was on the wire
// until e, and the tail is receive-side overhead.  Out-of-window
// boundaries (e.g. a transfer that completed before a late receiver even
// posted) clip away to empty segments.
void message_chain(const OpExec& op, SimTime b0, SimTime c, SimTime p,
                   SimTime q, SimTime e, Category blocked, int jump,
                   Segments& segments) {
  const auto clip = [&](SimTime t) { return std::min(std::max(t, b0), c); };
  segments.emit(b0, clip(p), blocked, op.phase, jump);
  segments.emit(clip(p), clip(q), Category::kNicWait, op.phase);
  segments.emit(clip(q), clip(e), Category::kTransfer, op.phase);
  segments.emit(clip(e), c, Category::kRecvOverhead, op.phase);
}

// A message op's partner became ready when it dispatched.
const OpExec& partner_of(const RunTrace& trace, const OpExec& op) {
  return trace.ops[static_cast<std::size_t>(op.partner)];
}

Segments op_segments(const RunTrace& trace, const OpExec& op) {
  Segments segments;
  const SimTime b0 = op.dispatch;
  const SimTime c = op.complete;
  switch (op.kind) {
    case sim::OpKind::kCpuCompute:
      segments.emit(b0, c, Category::kCompute, op.phase);
      break;
    case sim::OpKind::kDelay:
      segments.emit(b0, c, Category::kInjected, op.phase);
      break;
    case sim::OpKind::kGpuKernel:
      segments.emit(b0, op.busy_start, Category::kGpuWait, op.phase);
      segments.emit(op.busy_start, c, Category::kGpuBusy, op.phase);
      break;
    case sim::OpKind::kCopyH2D:
    case sim::OpKind::kCopyD2H:
      segments.emit(b0, op.busy_start, Category::kCopyWait, op.phase);
      segments.emit(op.busy_start, c, Category::kCopyBusy, op.phase);
      break;
    case sim::OpKind::kSend: {
      const sim::MessageRecord& m = trace.messages[static_cast<std::size_t>(op.msg)];
      if (m.eager) {
        segments.emit(b0, c, Category::kSendOverhead, op.phase);
        break;
      }
      const OpExec& recv = partner_of(trace, op);
      message_chain(op, b0, c, recv.dispatch, m.start, m.end,
                    Category::kBlockedSend, recv.rank, segments);
      break;
    }
    case sim::OpKind::kRecv: {
      const sim::MessageRecord& m = trace.messages[static_cast<std::size_t>(op.msg)];
      const OpExec& send = partner_of(trace, op);
      message_chain(op, b0, c, send.dispatch, m.start, m.end,
                    Category::kBlockedRecv, send.rank, segments);
      break;
    }
    case sim::OpKind::kIsend:
      segments.emit(b0, c, Category::kSendOverhead, op.phase);
      break;
    case sim::OpKind::kIrecv:
      segments.emit(b0, c, Category::kRecvOverhead, op.phase);
      break;
    case sim::OpKind::kWaitAll: {
      if (c <= b0) break;  // nothing outstanding: zero-width window
      SOC_CHECK(op.determinant >= 0, "attribute: waitall without determinant");
      const OpExec& det = trace.ops[static_cast<std::size_t>(op.determinant)];
      SOC_CHECK(det.kind == sim::OpKind::kIrecv && det.msg >= 0,
                "attribute: blocking waitall not bound by an irecv");
      const sim::MessageRecord& m =
          trace.messages[static_cast<std::size_t>(det.msg)];
      const OpExec& send = partner_of(trace, det);
      message_chain(op, b0, c, send.dispatch, m.start, m.end,
                    Category::kBlockedWait, send.rank, segments);
      break;
    }
    default:
      SOC_CHECK(false, "attribute: unexpected op kind in trace");
  }
  return segments;
}

// The segment of rank r's timeline that ends exactly at boundary `t`.
// The forward pass in attribute() has checked that the rank's op windows
// tile [0, finish], so the segment containing t - 1 lies in the last op
// dispatched at or before t - 1; only that op's segments are rebuilt.
// The walk's cursor only moves back, so the search for that op resumes
// where the rank's previous one ended (`end`: ops at or past it were
// dispatched after t - 1), and the whole walk reads each op at most once.
// The walk never reaches an idle tail: it starts on a rank that finishes
// at the makespan, and a parked segment hands it to the partner no later
// than the partner's dispatch.
Segment segment_ending_at(const RunTrace& trace, std::size_t r, SimTime t,
                          std::size_t& end) {
  SOC_CHECK(t <= trace.finish[r], "attribute: walk entered an idle tail");
  const std::vector<int>& ops = trace.rank_ops[r];
  const auto op_at = [&](std::size_t i) -> const OpExec& {
    return trace.ops[static_cast<std::size_t>(ops[i])];
  };
  while (end > 0 && op_at(end - 1).dispatch > t - 1) --end;
  SOC_CHECK(end > 0, "attribute: walk fell off the timeline");
  const Segments segments = op_segments(trace, op_at(end - 1));
  // Binary search for the segment containing t - 1.
  const Segment* s = std::upper_bound(
      segments.begin(), segments.end(), t - 1,
      [](SimTime v, const Segment& seg) { return v < seg.begin; });
  SOC_CHECK(s != segments.begin(), "attribute: walk fell off the timeline");
  --s;
  SOC_CHECK(s->end == t, "attribute: walk cursor not on a segment boundary");
  return *s;
}

}  // namespace

Attribution attribute(const RunTrace& trace) {
  const std::size_t n = static_cast<std::size_t>(trace.placement.ranks);
  const SimTime makespan = trace.stats.makespan;

  // One pass over the op windows in dispatch order (each rank's are
  // contiguous, and each is tiled by its segments), then kIdle tops every
  // rank up to the makespan.  The trace stores the ranks interleaved, one
  // 64-byte record per op, so index order reads it sequentially, and the
  // message and partner op a window reads were dispatched close by;
  // walking one rank at a time would stride across the whole trace.
  // Each rank's ops still arrive in its program order.
  std::size_t total_segments = 0;
  Attribution out;
  out.rank_profiles.assign(n, RankProfile{});
  // Zero-residual invariant: every nanosecond of [0, makespan] is
  // attributed exactly once per rank.
  std::vector<SimTime> covered(n, 0);
  const auto add = [&](std::size_t r, const Segment& s) {
    SOC_CHECK(s.begin == covered[r], "attribute: gap in rank timeline");
    covered[r] = s.end;
    out.rank_profiles[r].by_category[static_cast<std::size_t>(s.category)] +=
        s.end - s.begin;
    ++total_segments;
  };
  for (const OpExec& op : trace.ops) {
    for (const Segment& s : op_segments(trace, op)) {
      add(static_cast<std::size_t>(op.rank), s);
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    if (makespan > trace.finish[r]) {
      add(r, Segment{trace.finish[r], makespan, Category::kIdle});
    }
    SOC_CHECK(covered[r] == makespan,
              "attribute: rank timeline short of makespan");
  }

  // Backward walk from the run's final event: the smallest rank that
  // finishes at the makespan.
  CriticalPath& path = out.path;
  path.by_rank.assign(n, 0);
  std::size_t rank = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (trace.finish[r] == makespan) {
      rank = r;
      break;
    }
  }
  SimTime cursor = makespan;
  std::vector<std::size_t> search_end(n);  ///< Per rank; see segment_ending_at.
  for (std::size_t r = 0; r < n; ++r) search_end[r] = trace.rank_ops[r].size();
  // Each iteration either consumes a segment or jumps rank at a fixed
  // cursor; jumps are bounded by the blocked-segment count, so this bound
  // only trips on a genuine cycle (which would be an engine bug).
  std::size_t guard = 2 * total_segments + n + 16;
  while (cursor > 0) {
    SOC_CHECK(guard-- > 0, "attribute: critical-path walk did not terminate");
    const Segment s =
        segment_ending_at(trace, rank, cursor, search_end[rank]);
    if (s.jump >= 0) {
      // Parked: the partner's dispatch at `cursor` ended the wait, so the
      // cause of this time lives on the partner's timeline.
      rank = static_cast<std::size_t>(s.jump);
      continue;
    }
    path.steps.push_back(PathStep{s.category, static_cast<int>(rank), s.phase,
                                  s.begin, s.end});
    const SimTime width = s.end - s.begin;
    path.by_category[static_cast<std::size_t>(s.category)] += width;
    path.by_phase[s.phase] += width;
    path.by_rank[rank] += width;
    path.total += width;
    cursor = s.begin;
  }
  std::reverse(path.steps.begin(), path.steps.end());
  SOC_CHECK(path.total == makespan,
            "attribute: critical path does not sum to the makespan");
  return out;
}

}  // namespace soc::prof
