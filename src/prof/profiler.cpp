#include "prof/profiler.h"

#include <algorithm>

#include "common/error.h"

namespace soc::prof {

namespace {

bool is_lane_op(sim::OpKind kind) {
  switch (kind) {
    case sim::OpKind::kCpuCompute:
    case sim::OpKind::kGpuKernel:
    case sim::OpKind::kCopyH2D:
    case sim::OpKind::kCopyD2H:
    case sim::OpKind::kDelay:
      return true;
    default:
      return false;
  }
}

sim::Lane lane_for(sim::OpKind kind) {
  switch (kind) {
    case sim::OpKind::kCpuCompute:
    case sim::OpKind::kDelay:
      return sim::Lane::kCpu;
    case sim::OpKind::kGpuKernel: return sim::Lane::kGpu;
    default: return sim::Lane::kCopy;
  }
}

// Ends an op's window at the rank's next dispatch (or drain).  A lane
// op's service must end exactly there: that is what lets OpExec omit it.
void close_window(OpExec& op, SimTime time, SimTime span_end) {
  op.complete = time;
  if (is_lane_op(op.kind)) {
    SOC_CHECK(span_end == op.complete,
              "profiler: lane span does not end at op completion");
  }
}

}  // namespace

void Profiler::on_run_begin(const sim::Placement& placement,
                            const sim::EngineConfig& config) {
  const std::size_t n = static_cast<std::size_t>(placement.ranks);
  trace_ = RunTrace{};
  trace_.placement = placement;
  trace_.config = config;
  trace_.rank_ops.assign(n, {});
  trace_.finish.assign(n, 0);
  open_.assign(n, -1);
  open_pc_.assign(n, 0);
  open_span_end_.assign(n, 0);
  eager_sends_.clear();
  rvz_sends_.clear();
  pending_recvs_.clear();
  pending_irecvs_.clear();
  arrivals_.clear();
  built_ = false;
}

// Op windows: each op runs from its first dispatch to the rank's next
// dispatch (a parked kWaitAll is re-dispatched on wake with the same pc,
// which folds into the open instance; no other op dispatches twice).
// The 0xFF drain record closes the rank's last window.
void Profiler::on_dispatch(const sim::DispatchRecord& record) {
  const std::size_t r = static_cast<std::size_t>(record.rank);
  int& open = open_[r];
  if (record.kind == 0xFF) {  // rank drained
    if (open >= 0) {
      close_window(trace_.ops[open], record.time, open_span_end_[r]);
    }
    open = -1;
    trace_.finish[r] = record.time;
    return;
  }
  const auto kind = static_cast<sim::OpKind>(record.kind);
  if (kind == sim::OpKind::kPhase) return;  // zero-width, consumed inline
  if (open >= 0 && open_pc_[r] == record.pc) {
    return;  // re-dispatch of the parked op (kWaitAll wake): same instance
  }
  if (open >= 0) close_window(trace_.ops[open], record.time, open_span_end_[r]);
  OpExec op;
  op.kind = kind;
  op.rank = record.rank;
  op.phase = record.phase;
  op.peer = record.peer;
  op.tag = record.tag;
  op.bytes = record.bytes;
  op.dispatch = record.time;
  const int oi = static_cast<int>(trace_.ops.size());

  // A send dispatch only *announces* a transfer; the MessageRecord
  // commits at the arrival or match event — the same event for
  // intra-node traffic, a later one across nodes.  Per (src, dst, tag,
  // protocol-class) key both streams are FIFO, so on_message pops its
  // sender from the matching class queue and binds the receiver exactly
  // as the engine did.
  switch (kind) {
    case sim::OpKind::kSend:
    case sim::OpKind::kIsend: {
      const bool eager = kind == sim::OpKind::kIsend ||
                         op.bytes <= trace_.config.eager_threshold;
      (eager ? eager_sends_ : rvz_sends_)
          .push(MsgKey{op.rank, op.peer, op.tag}, oi);
      break;
    }
    case sim::OpKind::kRecv:
    case sim::OpKind::kIrecv: {
      const MsgKey key{op.peer, op.rank, op.tag};
      ArrivalRef a;
      if (arrivals_.take(key, &a)) {
        op.msg = a.msg;
        op.partner = a.op;
        trace_.ops[a.op].partner = oi;
        break;
      }
      // Park; the committing message binds us.  When this very dispatch
      // completes a rendezvous, the engine commits the transfer within
      // the same event, so on_message follows immediately and pops us
      // right back out.
      (kind == sim::OpKind::kRecv ? pending_recvs_ : pending_irecvs_)
          .push(key, oi);
      break;
    }
    default:
      break;
  }
  trace_.ops.push_back(op);
  trace_.rank_ops[r].push_back(oi);
  open = oi;
  open_pc_[r] = record.pc;
  open_span_end_[r] = 0;
}

// A lane span commits in the same event as its op's dispatch, right
// after it, so it belongs to the rank's open op.
void Profiler::on_span(const sim::SpanRecord& span) {
  trace_.usage.add(span);
  if (span.lane != sim::Lane::kCpu && span.lane != sim::Lane::kGpu &&
      span.lane != sim::Lane::kCopy) {
    return;  // NIC occupancy is reconstructed from messages instead
  }
  const std::size_t r = static_cast<std::size_t>(span.rank);
  const int open = open_[r];
  SOC_CHECK(open >= 0 && is_lane_op(trace_.ops[open].kind),
            "profiler: span with no matching op");
  OpExec& op = trace_.ops[open];
  SOC_CHECK(lane_for(op.kind) == span.lane,
            "profiler: span lane does not match program order");
  op.busy_start = span.start;
  open_span_end_[r] = span.end;
}

void Profiler::on_message(const sim::MessageRecord& m) {
  const int mi = static_cast<int>(trace_.messages.size());
  trace_.messages.push_back(m);
  const MsgKey key{m.src_rank, m.dst_rank, m.tag};
  int si = -1;
  const bool announced = (m.eager ? eager_sends_ : rvz_sends_).take(key, &si);
  SOC_CHECK(announced, "profiler: message with no announcing send");
  OpExec& send = trace_.ops[si];
  send.msg = mi;
  int ri = -1;
  if (pending_recvs_.take(key, &ri) || pending_irecvs_.take(key, &ri)) {
    OpExec& recv = trace_.ops[ri];
    recv.msg = mi;
    recv.partner = si;
    send.partner = ri;
    return;
  }
  // Only an eager payload can commit with no receive posted; it parks at
  // the receiver until a recv/irecv dispatches.  A rendezvous transfer
  // commits at its match, by definition with both endpoints known.
  SOC_CHECK(m.eager, "profiler: rendezvous commit without receiver");
  arrivals_.push(key, ArrivalRef{si, mi});
}

// Post-passes — rendezvous window validation and kWaitAll determinants —
// need every window closed.  One pass in dispatch order, which reads the
// trace sequentially (a pass per rank would stride across it); each
// rank's ops still arrive in its program order.
void Profiler::on_run_end(const sim::RunStats& stats) {
  trace_.stats = stats;
  for (const int open : open_) {
    SOC_CHECK(open < 0, "profiler: rank never drained (deadlock?)");
  }
  // Per rank: its isend/irecv ops since its last kWaitAll.
  std::vector<std::vector<int>> windows(open_.size());
  const std::size_t count = trace_.ops.size();
  for (std::size_t i = 0; i < count; ++i) {
    OpExec& op = trace_.ops[i];
    std::vector<int>& window = windows[static_cast<std::size_t>(op.rank)];
    switch (op.kind) {
      case sim::OpKind::kSend:
        SOC_CHECK(op.msg >= 0, "profiler: unmatched send");
        // A rendezvous sender runs again when the CTS lands
        // (sender_complete); across nodes that is one wire latency
        // after the match, not the wire end itself.
        SOC_CHECK(trace_.messages[op.msg].eager ||
                      op.complete == trace_.messages[op.msg].sender_complete,
                  "profiler: rendezvous send window mismatch");
        break;
      case sim::OpKind::kRecv: {
        SOC_CHECK(op.msg >= 0, "profiler: unmatched recv");
        const sim::MessageRecord& m = trace_.messages[op.msg];
        SOC_CHECK(m.eager || op.complete == m.delivery,
                  "profiler: rendezvous recv window mismatch");
        break;
      }
      case sim::OpKind::kIsend:
      case sim::OpKind::kIrecv:
        window.push_back(static_cast<int>(i));
        break;
      case sim::OpKind::kWaitAll: {
        // Request completions, derived per request without needing any
        // cost-model constant: an isend completes locally with its
        // posting; an irecv completes at max(posting done, message
        // arrival + its own posting overhead).
        SimTime best = 0;
        int det = -1;
        for (const int qi : window) {
          const OpExec& q = trace_.ops[qi];
          SimTime done = q.complete;
          if (q.kind == sim::OpKind::kIrecv) {
            SOC_CHECK(q.msg >= 0, "profiler: unmatched irecv");
            done = std::max(done, trace_.messages[q.msg].delivery +
                                      (q.complete - q.dispatch));
          }
          if (done > best) {
            best = done;
            det = qi;
          }
        }
        window.clear();
        if (op.complete > op.dispatch) {
          SOC_CHECK(det >= 0 && best == op.complete,
                    "profiler: waitall completion mismatch");
          op.determinant = det;
        } else {
          SOC_CHECK(best <= op.complete,
                    "profiler: request outlived its waitall");
        }
        break;
      }
      default:
        break;
    }
  }
  built_ = true;
}

const RunTrace& Profiler::trace() const {
  SOC_CHECK(built_, "Profiler::trace() before a run completed");
  return trace_;
}

}  // namespace soc::prof
