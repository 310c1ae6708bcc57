#include "prof/profiler.h"

#include <algorithm>

#include "common/error.h"
#include "common/match_table.h"

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

// An eager message parked at the receiver: the sender's op plus the
// already-committed transfer.
struct ArrivalRef {
  int op = -1;
  int msg = -1;
};

}  // namespace

void Profiler::on_run_begin(const sim::Placement& placement,
                            const sim::EngineConfig& config) {
  trace_ = RunTrace{};
  trace_.placement = placement;
  trace_.config = config;
  dispatches_.clear();
  spans_.clear();
  order_.clear();
  built_ = false;
}

void Profiler::on_dispatch(const sim::DispatchRecord& record) {
  order_.push_back(static_cast<std::int64_t>(dispatches_.size()));
  dispatches_.push_back(record);
}

void Profiler::on_span(const sim::SpanRecord& span) {
  spans_.push_back(span);
  trace_.usage.add(span);
}

void Profiler::on_message(const sim::MessageRecord& message) {
  order_.push_back(~static_cast<std::int64_t>(trace_.messages.size()));
  trace_.messages.push_back(message);
}

void Profiler::on_run_end(const sim::RunStats& stats) {
  trace_.stats = stats;
  build();
  built_ = true;
}

const RunTrace& Profiler::trace() const {
  SOC_CHECK(built_, "Profiler::trace() before a run completed");
  return trace_;
}

void Profiler::build() {
  const std::size_t n = static_cast<std::size_t>(trace_.placement.ranks);
  trace_.rank_ops.assign(n, {});
  trace_.finish.assign(n, 0);
  trace_.send_overhead.assign(n, -1);
  trace_.recv_overhead.assign(n, -1);
  trace_.ops.reserve(dispatches_.size());

  // -- Pass 1: fold the dispatch stream into per-rank op instances. -----
  // Op windows: each op runs from its first dispatch to the rank's next
  // dispatch (a parked kWaitAll is re-dispatched on wake with the same
  // pc, which folds into the open instance; no other op dispatches
  // twice).  The 0xFF drain record closes the rank's last window.
  std::vector<int> last_op(n, -1);
  std::vector<int> dispatch_op(dispatches_.size(), -1);
  std::vector<bool> first_dispatch(dispatches_.size(), false);
  for (std::size_t di = 0; di < dispatches_.size(); ++di) {
    const sim::DispatchRecord& rec = dispatches_[di];
    const std::size_t r = static_cast<std::size_t>(rec.rank);
    const auto kind = static_cast<sim::OpKind>(rec.kind);
    if (rec.kind == 0xFF) {  // rank drained
      if (last_op[r] >= 0) trace_.ops[last_op[r]].complete = rec.time;
      last_op[r] = -1;
      trace_.finish[r] = rec.time;
      continue;
    }
    if (kind == sim::OpKind::kPhase) continue;  // zero-width, consumed inline
    if (last_op[r] >= 0 && trace_.ops[last_op[r]].pc == rec.pc) {
      // Re-dispatch of the parked op (kWaitAll wake): same instance.
      dispatch_op[di] = last_op[r];
      continue;
    }
    if (last_op[r] >= 0) trace_.ops[last_op[r]].complete = rec.time;
    OpExec op;
    op.kind = kind;
    op.rank = rec.rank;
    op.node = rec.node;
    op.phase = rec.phase;
    op.peer = rec.peer;
    op.tag = rec.tag;
    op.pc = rec.pc;
    op.bytes = rec.bytes;
    op.dispatch = rec.time;
    const int oi = static_cast<int>(trace_.ops.size());
    trace_.ops.push_back(op);
    trace_.rank_ops[r].push_back(oi);
    last_op[r] = oi;
    dispatch_op[di] = oi;
    first_dispatch[di] = true;
  }
  for (std::size_t r = 0; r < n; ++r) {
    SOC_CHECK(last_op[r] < 0, "profiler: rank never drained (deadlock?)");
  }

  // -- Pass 2: attach cpu/gpu/copy service windows from the span stream.
  // Lane spans are emitted at dispatch, so per rank they appear in
  // program order; a cursor per rank pairs them up.
  std::vector<std::size_t> lane_cursor(n, 0);
  for (const sim::SpanRecord& span : spans_) {
    if (span.lane != sim::Lane::kCpu && span.lane != sim::Lane::kGpu &&
        span.lane != sim::Lane::kCopy) {
      continue;  // NIC occupancy is reconstructed from messages instead
    }
    const std::size_t r = static_cast<std::size_t>(span.rank);
    std::size_t& cur = lane_cursor[r];
    while (cur < trace_.rank_ops[r].size() &&
           !is_lane_op(trace_.ops[trace_.rank_ops[r][cur]].kind)) {
      ++cur;
    }
    SOC_CHECK(cur < trace_.rank_ops[r].size(),
              "profiler: span with no matching op");
    OpExec& op = trace_.ops[trace_.rank_ops[r][cur]];
    SOC_CHECK(lane_for(op.kind) == span.lane,
              "profiler: span lane does not match program order");
    op.busy_start = span.start;
    op.busy_end = span.end;
    SOC_CHECK(op.busy_end == op.complete,
              "profiler: lane span does not end at op completion");
    ++cur;
  }

  // -- Pass 3: replay the engine's message matching over the merged
  // dispatch/message commit stream.  A send dispatch only *announces* a
  // transfer; the MessageRecord commits at the arrival or match event —
  // the same event for intra-node traffic, a later one across nodes.
  // Per (src, dst, tag, protocol-class) key both streams are FIFO, so
  // each message entry pops its sender from the matching class queue and
  // binds the receiver exactly as the engine did.
  MatchTable<int> eager_sends;
  MatchTable<int> rvz_sends;
  MatchTable<int> pending_recvs;
  MatchTable<int> pending_irecvs;
  MatchTable<ArrivalRef> arrivals;
  for (const std::int64_t entry : order_) {
    if (entry < 0) {
      const int mi = static_cast<int>(~entry);
      const sim::MessageRecord& m =
          trace_.messages[static_cast<std::size_t>(mi)];
      const MsgKey key{m.src_rank, m.dst_rank, m.tag};
      int si = -1;
      const bool announced =
          (m.eager ? eager_sends : rvz_sends).take(key, &si);
      SOC_CHECK(announced, "profiler: message with no announcing send");
      OpExec& send = trace_.ops[si];
      send.msg = mi;
      int ri = -1;
      if (pending_recvs.take(key, &ri) || pending_irecvs.take(key, &ri)) {
        OpExec& recv = trace_.ops[ri];
        recv.msg = mi;
        recv.partner = si;
        recv.partner_ready = send.dispatch;
        send.partner = ri;
        // An eager sender never waits on its receiver; its window is the
        // local posting overhead and partner_ready stays unset.
        if (!m.eager) send.partner_ready = recv.dispatch;
      } else {
        // Only an eager payload can commit with no receive posted; it
        // parks at the receiver until a recv/irecv dispatches.  A
        // rendezvous transfer commits at its match, by definition with
        // both endpoints known.
        SOC_CHECK(m.eager, "profiler: rendezvous commit without receiver");
        arrivals.push(key, ArrivalRef{si, mi});
      }
      continue;
    }
    const std::size_t di = static_cast<std::size_t>(entry);
    if (!first_dispatch[di]) continue;
    const int oi = dispatch_op[di];
    OpExec& op = trace_.ops[oi];
    switch (op.kind) {
      case sim::OpKind::kSend:
      case sim::OpKind::kIsend: {
        const bool eager = op.kind == sim::OpKind::kIsend ||
                           op.bytes <= trace_.config.eager_threshold;
        (eager ? eager_sends : rvz_sends)
            .push(MsgKey{op.rank, op.peer, op.tag}, oi);
        break;
      }
      case sim::OpKind::kRecv:
      case sim::OpKind::kIrecv: {
        const MsgKey key{op.peer, op.rank, op.tag};
        ArrivalRef a;
        if (arrivals.take(key, &a)) {
          op.msg = a.msg;
          op.partner = a.op;
          op.partner_ready = trace_.ops[a.op].dispatch;
          trace_.ops[a.op].partner = oi;
          break;
        }
        // Park; the committing message entry binds us.  When this very
        // dispatch completes a rendezvous, the engine commits the
        // transfer within the same event, so the message entry follows
        // immediately and pops us right back out.
        (op.kind == sim::OpKind::kRecv ? pending_recvs : pending_irecvs)
            .push(key, oi);
        break;
      }
      default:
        break;
    }
  }

  // -- Pass 4: per-rank post-passes — overhead constants, rendezvous
  // window validation, and kWaitAll determinants.
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<int> window;  // isend/irecv since the last kWaitAll
    for (const int oi : trace_.rank_ops[r]) {
      OpExec& op = trace_.ops[oi];
      switch (op.kind) {
        case sim::OpKind::kSend:
          SOC_CHECK(op.msg >= 0, "profiler: unmatched send");
          if (trace_.messages[op.msg].eager) {
            if (trace_.send_overhead[r] < 0) {
              trace_.send_overhead[r] = op.complete - op.dispatch;
            }
          } else {
            // A rendezvous sender runs again when the CTS lands
            // (sender_complete); across nodes that is one wire latency
            // after the match, not the wire end itself.
            SOC_CHECK(op.complete == trace_.messages[op.msg].sender_complete,
                      "profiler: rendezvous send window mismatch");
          }
          break;
        case sim::OpKind::kRecv: {
          SOC_CHECK(op.msg >= 0, "profiler: unmatched recv");
          const sim::MessageRecord& m = trace_.messages[op.msg];
          if (m.eager) {
            // delivery, not the nominal wire end: switch output-port
            // queueing shifts when the payload actually lands.
            if (trace_.recv_overhead[r] < 0) {
              trace_.recv_overhead[r] =
                  op.complete - std::max(op.dispatch, m.delivery);
            }
          } else {
            SOC_CHECK(op.complete == m.delivery,
                      "profiler: rendezvous recv window mismatch");
          }
          break;
        }
        case sim::OpKind::kIsend:
          if (trace_.send_overhead[r] < 0) {
            trace_.send_overhead[r] = op.complete - op.dispatch;
          }
          window.push_back(oi);
          break;
        case sim::OpKind::kIrecv:
          if (trace_.recv_overhead[r] < 0) {
            trace_.recv_overhead[r] = op.complete - op.dispatch;
          }
          window.push_back(oi);
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
  }
}

}  // namespace soc::prof
