#include "prof/whatif.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.h"
#include "common/match_table.h"
#include "sim/event_queue.h"

namespace soc::prof {

namespace {

// (src_node, dst_node, bytes) -> one message-cost table slot.
std::uint64_t cost_key(int src_node, int dst_node, Bytes bytes) {
  SOC_CHECK(src_node >= 0 && src_node < 1024 && dst_node >= 0 &&
                dst_node < 1024 && bytes >= 0 && bytes < (Bytes{1} << 44),
            "what-if: cost key out of range");
  return (static_cast<std::uint64_t>(src_node) << 54) |
         (static_cast<std::uint64_t>(dst_node) << 44) |
         static_cast<std::uint64_t>(bytes);
}

// Wake/protocol event keys — the same intrinsic (time, key) total order
// the engine uses, so ties pop in the same order here as there.
std::uint64_t wake_key(int rank) {
  return (std::uint64_t{1} << 63) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 47);
}

// Mirror of sim::Engine with the cost model swapped for lookups into the
// recorded trace.  Scheduling rules, the protocol-message machinery
// (eager arrivals, rendezvous RTS/CTS), tie-breaking (the engine's
// intrinsic event keys), and every queue-push site match the engine one
// for one, so the unmodified scenario reproduces the recorded schedule
// exactly.
class Evaluator {
 public:
  Evaluator(const RunTrace& trace, const WhatIf& scenario)
      : trace_(trace),
        scenario_(scenario),
        bisection_(scenario.ideal_network
                       ? 0.0
                       : trace.config.bisection_bandwidth) {
    const std::size_t n = static_cast<std::size_t>(trace_.placement.ranks);
    SOC_CHECK(scenario_.compute_scale.empty() ||
                  scenario_.compute_scale.size() == n,
              "what-if: compute_scale size mismatch");
    SOC_REQUIRE(scenario_.dvfs_compute > 0.0 && scenario_.dvfs_dram > 0.0,
                "what-if: DVFS frequency scales must be positive");
    // Message costs: latency is recorded per message; the wire share is
    // the rest of the *nominal* transfer window (MessageRecord::end
    // excludes port queueing by contract).  Identical (nodes, bytes)
    // keys always carry identical costs (the cost model is
    // deterministic), and any pair that ever communicates has at least
    // one recorded message to take the pair latency from.  The ideal
    // network is these tables zeroed, with an unlimited switch
    // (bisection_), exactly as trace::replay_ideal_network re-runs the
    // engine.
    const bool zero_cost = scenario_.ideal_network;
    for (const sim::MessageRecord& m : trace_.messages) {
      const int src = node_of(m.src_rank);
      const int dst = node_of(m.dst_rank);
      const SimTime latency = zero_cost ? 0 : m.latency;
      const SimTime xfer = zero_cost ? 0 : (m.end - m.start) - m.latency;
      costs_[cost_key(src, dst, m.bytes)] = {latency, xfer};
      latencies_[(static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                  << 32) |
                 static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst))] =
          latency;
    }
  }

  SimTime run() {
    const std::size_t n = static_cast<std::size_t>(trace_.placement.ranks);
    const std::size_t nodes = static_cast<std::size_t>(trace_.placement.nodes);
    states_.assign(n, State{});
    finish_.assign(n, 0);
    proto_seq_.assign(n, 0);
    gpu_free_.assign(nodes, 0);
    copy_free_.assign(nodes, 0);
    nic_tx_free_.assign(nodes, 0);
    nic_rx_free_.assign(nodes, 0);
    port_free_.assign(nodes, 0);
    for (std::size_t r = 0; r < n; ++r) {
      queue_.push(0, wake_key(static_cast<int>(r)), static_cast<int>(r));
    }
    while (!queue_.empty()) {
      const sim::KeyedEvent e = queue_.pop();
      if (e.payload >= 0) {
        execute(e.payload, e.time);
      } else {
        const std::int32_t slot = -(e.payload + 1);
        const Proto p = protos_[static_cast<std::size_t>(slot)];
        proto_free_.push_back(slot);
        switch (p.kind) {
          case ProtoKind::kArrival: process_arrival(p); break;
          case ProtoKind::kRts: process_rts(p, e.time); break;
          case ProtoKind::kCts: advance(p.src_rank, e.time); break;
        }
      }
    }
    SimTime makespan = 0;
    for (std::size_t r = 0; r < n; ++r) {
      SOC_CHECK(states_[r].done, "what-if: evaluation deadlocked");
      makespan = std::max(makespan, finish_[r]);
    }
    return makespan;
  }

 private:
  struct State {
    std::size_t pc = 0;  ///< Index into trace.rank_ops[rank].
    int unresolved = 0;
    SimTime requests_complete = 0;
    bool waiting_all = false;
    bool done = false;
  };
  struct PendingSend {
    int rank = 0;
    SimTime ready = 0;
    Bytes bytes = 0;
    int tag = 0;
    SimTime tx_est = 0;
  };
  struct PendingRecv {
    int rank = 0;
    SimTime ready = 0;
  };
  struct Arrival {
    SimTime time = 0;
  };
  enum class ProtoKind : std::uint8_t { kArrival, kRts, kCts };
  struct Proto {
    ProtoKind kind = ProtoKind::kArrival;
    int src_rank = 0;
    int dst_rank = 0;
    int tag = 0;
    Bytes bytes = 0;
    SimTime ready = 0;   ///< kRts: the sender's dispatch time.
    SimTime end = 0;     ///< kArrival: nominal wire end.
    SimTime tx_est = 0;  ///< kRts: sender NIC estimate shipped with it.
  };

  int node_of(int rank) const {
    return trace_.placement.node_of[static_cast<std::size_t>(rank)];
  }
  const OpExec& op_at(int rank, std::size_t pc) const {
    return trace_.ops[static_cast<std::size_t>(
        trace_.rank_ops[static_cast<std::size_t>(rank)][pc])];
  }
  SimTime send_overhead(int rank) const {
    const SimTime t = trace_.send_overhead[static_cast<std::size_t>(rank)];
    SOC_CHECK(t >= 0, "what-if: send overhead unknown for rank");
    return t;
  }
  SimTime recv_overhead(int rank) const {
    const SimTime t = trace_.recv_overhead[static_cast<std::size_t>(rank)];
    SOC_CHECK(t >= 0, "what-if: recv overhead unknown for rank");
    return t;
  }
  std::pair<SimTime, SimTime> message_cost(int src_node, int dst_node,
                                           Bytes bytes) const {
    const auto it = costs_.find(cost_key(src_node, dst_node, bytes));
    SOC_CHECK(it != costs_.end(), "what-if: message cost not in trace");
    return it->second;
  }
  SimTime pair_latency(int src_node, int dst_node) const {
    const auto it = latencies_.find(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_node))
         << 32) |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_node)));
    SOC_CHECK(it != latencies_.end(), "what-if: pair latency not in trace");
    return it->second;
  }
  bool use_protocol(int src_rank, int dst_rank) const {
    return node_of(src_rank) != node_of(dst_rank);
  }
  /// Under `uncontended` the shared NIC/port clocks are never advanced,
  /// so the engine-mirroring max() reads below see zeros and collapse to
  /// the uncontended times without changing any formula.
  bool contended() const { return !scenario_.uncontended; }
  void emit_proto(int emitter_rank, int target_rank, SimTime time,
                  const Proto& p) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(target_rank))
         << 47) |
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(emitter_rank))
         << 32) |
        proto_seq_[static_cast<std::size_t>(emitter_rank)]++;
    // Reuse a popped slot, as the engine's proto_pool_ does; events order
    // by (time, key), never by slot.
    std::int32_t slot;
    if (!proto_free_.empty()) {
      slot = proto_free_.back();
      proto_free_.pop_back();
      protos_[static_cast<std::size_t>(slot)] = p;
    } else {
      slot = static_cast<std::int32_t>(protos_.size());
      protos_.push_back(p);
    }
    queue_.push(time, key, -(slot + 1));
  }
  double scale_for(int rank) const {
    if (scenario_.compute_scale.empty()) return 1.0;
    return scenario_.compute_scale[static_cast<std::size_t>(rank)];
  }
  SimTime scaled(SimTime t, int rank) const {
    const double s = scale_for(rank);
    if (s == 1.0) return t;
    return static_cast<SimTime>(std::llround(static_cast<double>(t) * s));
  }
  /// DVFS duration scaling: a lane clocked at relative frequency f takes
  /// 1/f of its recorded service time.  f == 1.0 skips the multiply so
  /// the baseline state reproduces recorded durations bit-exactly.
  static SimTime dvfs_scaled(SimTime t, double freq) {
    if (freq == 1.0) return t;
    return static_cast<SimTime>(std::llround(static_cast<double>(t) / freq));
  }

  void execute(int rank, SimTime now) {
    auto& st = states_[static_cast<std::size_t>(rank)];
    const auto& program = trace_.rank_ops[static_cast<std::size_t>(rank)];
    if (st.pc >= program.size()) {
      st.done = true;
      finish_[static_cast<std::size_t>(rank)] =
          std::max(finish_[static_cast<std::size_t>(rank)], now);
      return;
    }
    const OpExec& op = op_at(rank, st.pc);
    switch (op.kind) {
      case sim::OpKind::kCpuCompute:
      case sim::OpKind::kGpuKernel:
      case sim::OpKind::kCopyH2D:
      case sim::OpKind::kCopyD2H:
      case sim::OpKind::kDelay:
        start_lane(rank, now, op);
        return;
      case sim::OpKind::kSend:
        start_send(rank, now, op);
        return;
      case sim::OpKind::kRecv:
        start_recv(rank, now, op);
        return;
      case sim::OpKind::kIsend:
        start_isend(rank, now, op);
        return;
      case sim::OpKind::kIrecv:
        start_irecv(rank, now, op);
        return;
      case sim::OpKind::kWaitAll:
        start_wait_all(rank, now);
        return;
      default:
        SOC_CHECK(false, "what-if: unexpected op kind");
    }
  }

  void start_lane(int rank, SimTime now, const OpExec& op) {
    auto& st = states_[static_cast<std::size_t>(rank)];
    const std::size_t node = static_cast<std::size_t>(node_of(rank));
    // cpu/gpu lanes follow the compute clocks; the copy engine follows
    // the memory clock.  Injected stalls (kDelay) are wall-clock: no
    // frequency scales them and no engine contends for them.
    double freq = 1.0;
    if (op.kind == sim::OpKind::kCpuCompute ||
        op.kind == sim::OpKind::kGpuKernel) {
      freq = scenario_.dvfs_compute;
    } else if (op.kind == sim::OpKind::kCopyH2D ||
               op.kind == sim::OpKind::kCopyD2H) {
      freq = scenario_.dvfs_dram;
    }
    const SimTime dur =
        dvfs_scaled(scaled(op.complete - op.busy_start, rank), freq);
    SimTime start = now;
    if (op.kind == sim::OpKind::kGpuKernel) {
      if (!scenario_.uncontended) {
        start = std::max(now, gpu_free_[node]);
        gpu_free_[node] = start + dur;
      }
    } else if (op.kind == sim::OpKind::kCopyH2D ||
               op.kind == sim::OpKind::kCopyD2H) {
      if (!scenario_.uncontended) {
        start = std::max(now, copy_free_[node]);
        copy_free_[node] = start + dur;
      }
    }
    ++st.pc;
    queue_.push(start + dur, wake_key(rank), rank);
  }

  void advance(int rank, SimTime wake) {
    ++states_[static_cast<std::size_t>(rank)].pc;
    queue_.push(wake, wake_key(rank), rank);
  }

  void start_send(int rank, SimTime now, const OpExec& op) {
    const MsgKey key{rank, op.peer, op.tag};
    if (use_protocol(rank, op.peer)) {
      if (op.bytes <= trace_.config.eager_threshold) {
        launch_eager_remote(rank, op.peer, now, op.bytes, op.tag);
        advance(rank, now + send_overhead(rank));
        return;
      }
      // Rendezvous: park and announce with an RTS one wire latency out.
      Proto p;
      p.kind = ProtoKind::kRts;
      p.src_rank = rank;
      p.dst_rank = op.peer;
      p.tag = op.tag;
      p.bytes = op.bytes;
      p.ready = now;
      p.tx_est = nic_tx_free_[static_cast<std::size_t>(node_of(rank))];
      emit_proto(rank, op.peer,
                 now + pair_latency(node_of(rank), node_of(op.peer)), p);
      return;  // blocked until the CTS lands
    }
    if (op.bytes <= trace_.config.eager_threshold) {
      const SimTime arrival = timed_transfer(rank, op.peer, now, op.bytes);
      const SimTime overhead = send_overhead(rank);
      deliver_eager(key, arrival);
      advance(rank, now + overhead);
      return;
    }
    PendingRecv pr;
    if (pending_recvs_.take(key, &pr)) {
      complete_rendezvous(rank, now, pr.rank, pr.ready, op.bytes);
      return;
    }
    int recv_rank = -1;
    if (pending_irecvs_.take(key, &recv_rank)) {
      const SimTime end = timed_transfer(rank, recv_rank, now, op.bytes);
      advance(rank, end);
      resolve_request(recv_rank, end + recv_overhead(recv_rank));
      return;
    }
    pending_sends_.push(key, PendingSend{rank, now, op.bytes, op.tag, 0});
  }

  /// An eager payload landed at `arrival`: it completes a parked
  /// receive, resolves a posted irecv, or waits for its receive.
  void deliver_eager(const MsgKey& key, SimTime arrival) {
    PendingRecv pr;
    int recv_rank = -1;
    if (pending_recvs_.take(key, &pr)) {
      advance(pr.rank, std::max(pr.ready, arrival) + recv_overhead(pr.rank));
    } else if (pending_irecvs_.take(key, &recv_rank)) {
      resolve_request(recv_rank, arrival + recv_overhead(recv_rank));
    } else {
      arrivals_.push(key, Arrival{arrival});
    }
  }

  void start_recv(int rank, SimTime now, const OpExec& op) {
    const MsgKey key{op.peer, rank, op.tag};
    Arrival a;
    if (arrivals_.take(key, &a)) {
      advance(rank, std::max(now, a.time) + recv_overhead(rank));
      return;
    }
    PendingSend ps;
    if (pending_sends_.take(key, &ps)) {
      if (use_protocol(op.peer, rank)) {
        const SimTime end =
            rendezvous_match(ps, rank, now, std::max(ps.ready, now));
        advance(rank, end);
      } else {
        complete_rendezvous(ps.rank, ps.ready, rank, now, ps.bytes);
      }
      return;
    }
    pending_recvs_.push(key, PendingRecv{rank, now});
  }

  void start_isend(int rank, SimTime now, const OpExec& op) {
    auto& st = states_[static_cast<std::size_t>(rank)];
    const SimTime overhead = send_overhead(rank);
    if (use_protocol(rank, op.peer)) {
      launch_eager_remote(rank, op.peer, now, op.bytes, op.tag);
      st.requests_complete = std::max(st.requests_complete, now + overhead);
      advance(rank, now + overhead);
      return;
    }
    const SimTime arrival = timed_transfer(rank, op.peer, now, op.bytes);
    st.requests_complete = std::max(st.requests_complete, now + overhead);
    deliver_eager(MsgKey{rank, op.peer, op.tag}, arrival);
    advance(rank, now + overhead);
  }

  void start_irecv(int rank, SimTime now, const OpExec& op) {
    auto& st = states_[static_cast<std::size_t>(rank)];
    const MsgKey key{op.peer, rank, op.tag};
    Arrival a;
    PendingSend ps;
    if (arrivals_.take(key, &a)) {
      st.requests_complete =
          std::max(st.requests_complete,
                   std::max(now, a.time) + recv_overhead(rank));
    } else {
      if (pending_sends_.take(key, &ps)) {
        if (use_protocol(op.peer, rank)) {
          const SimTime end =
              rendezvous_match(ps, rank, now, std::max(ps.ready, now));
          st.requests_complete =
              std::max(st.requests_complete, end + recv_overhead(rank));
        } else {
          const SimTime end =
              timed_transfer(ps.rank, rank, std::max(ps.ready, now), ps.bytes);
          advance(ps.rank, end);
          st.requests_complete =
              std::max(st.requests_complete, end + recv_overhead(rank));
        }
      } else {
        ++st.unresolved;
        pending_irecvs_.push(key, rank);
      }
    }
    advance(rank, now + recv_overhead(rank));
  }

  void start_wait_all(int rank, SimTime now) {
    auto& st = states_[static_cast<std::size_t>(rank)];
    if (st.unresolved > 0) {
      st.waiting_all = true;
      return;  // resolve_request wakes us
    }
    const SimTime done = std::max(now, st.requests_complete);
    st.requests_complete = 0;
    advance(rank, done);
  }

  void complete_rendezvous(int send_rank, SimTime send_ready, int recv_rank,
                           SimTime recv_ready, Bytes bytes) {
    const SimTime end = timed_transfer(
        send_rank, recv_rank, std::max(send_ready, recv_ready), bytes);
    advance(send_rank, end);  // engine pushes sender first, then receiver
    advance(recv_rank, end);
  }

  void resolve_request(int rank, SimTime completion) {
    auto& st = states_[static_cast<std::size_t>(rank)];
    SOC_CHECK(st.unresolved > 0, "what-if: resolve with no pending request");
    --st.unresolved;
    st.requests_complete = std::max(st.requests_complete, completion);
    if (st.waiting_all && st.unresolved == 0) {
      st.waiting_all = false;
      queue_.push(st.requests_complete, wake_key(rank), rank);
    }
  }

  // Instant path only (same node), eager or rendezvous — the same split
  // as the engine; cross-node transfers go through the protocol-message
  // path above and never reach here.
  SimTime timed_transfer(int send_rank, int recv_rank, SimTime earliest,
                         Bytes bytes) {
    const auto [latency, xfer] =
        message_cost(node_of(send_rank), node_of(recv_rank), bytes);
    return earliest + latency + xfer;
  }

  void launch_eager_remote(int src_rank, int dst_rank, SimTime now,
                           Bytes bytes, int tag) {
    const int src_node = node_of(src_rank);
    const int dst_node = node_of(dst_rank);
    auto& nic_tx = nic_tx_free_[static_cast<std::size_t>(src_node)];
    const SimTime start = std::max(now, nic_tx);
    const auto [latency, xfer] = message_cost(src_node, dst_node, bytes);
    const SimTime arrival = start + latency + xfer;
    if (contended()) nic_tx = start + xfer;
    Proto p;
    p.kind = ProtoKind::kArrival;
    p.src_rank = src_rank;
    p.dst_rank = dst_rank;
    p.tag = tag;
    p.bytes = bytes;
    p.end = arrival;
    emit_proto(src_rank, dst_rank, arrival, p);
  }

  void process_arrival(const Proto& p) {
    const int dst = p.dst_rank;
    const int dst_node = node_of(dst);
    SimTime delivery = p.end;
    if (bisection_ > 0.0) {
      auto& port = port_free_[static_cast<std::size_t>(dst_node)];
      delivery = std::max(p.end, port);
      if (contended()) {
        port = delivery +
               transfer_time(p.bytes, bisection_ / trace_.placement.nodes);
      }
    }
    auto& nic_rx = nic_rx_free_[static_cast<std::size_t>(dst_node)];
    if (contended()) nic_rx = std::max(nic_rx, delivery);
    deliver_eager(MsgKey{p.src_rank, dst, p.tag}, delivery);
  }

  void process_rts(const Proto& p, SimTime now) {
    const MsgKey key{p.src_rank, p.dst_rank, p.tag};
    const PendingSend ps{p.src_rank, p.ready, p.bytes, p.tag, p.tx_est};
    PendingRecv pr;
    if (pending_recvs_.take(key, &pr)) {
      const SimTime end =
          rendezvous_match(ps, pr.rank, now, std::max(ps.ready, pr.ready));
      advance(pr.rank, end);
      return;
    }
    int recv_rank = -1;
    if (pending_irecvs_.take(key, &recv_rank)) {
      const SimTime end = rendezvous_match(ps, recv_rank, now, ps.ready);
      resolve_request(recv_rank, end + recv_overhead(recv_rank));
      return;
    }
    pending_sends_.push(key, ps);
  }

  SimTime rendezvous_match(const PendingSend& ps, int recv_rank,
                           SimTime match_time, SimTime start_base) {
    const int src_node = node_of(ps.rank);
    const int dst_node = node_of(recv_rank);
    SimTime start = std::max({start_base, ps.tx_est,
                              nic_rx_free_[static_cast<std::size_t>(dst_node)]});
    if (bisection_ > 0.0) {
      auto& port = port_free_[static_cast<std::size_t>(dst_node)];
      start = std::max(start, port);
      if (contended()) {
        port = start +
               transfer_time(ps.bytes, bisection_ / trace_.placement.nodes);
      }
    }
    const auto [latency, xfer] = message_cost(src_node, dst_node, ps.bytes);
    const SimTime end = start + latency + xfer;
    if (contended()) {
      nic_rx_free_[static_cast<std::size_t>(dst_node)] = end;
    }
    const SimTime cts = std::max(end, match_time + latency);
    Proto cp;
    cp.kind = ProtoKind::kCts;
    cp.src_rank = ps.rank;
    cp.dst_rank = recv_rank;
    cp.tag = ps.tag;
    cp.bytes = ps.bytes;
    emit_proto(recv_rank, ps.rank, cts, cp);
    return end;
  }

  const RunTrace& trace_;
  const WhatIf& scenario_;
  double bisection_;  ///< Switch capacity (0 = unlimited).
  std::map<std::uint64_t, std::pair<SimTime, SimTime>> costs_;
  std::map<std::uint64_t, SimTime> latencies_;
  sim::KeyedEventQueue queue_;
  std::vector<Proto> protos_;
  std::vector<std::int32_t> proto_free_;  ///< Recycled protos_ slots.
  std::vector<std::uint32_t> proto_seq_;
  std::vector<State> states_;
  std::vector<SimTime> finish_;
  std::vector<SimTime> gpu_free_;
  std::vector<SimTime> copy_free_;
  std::vector<SimTime> nic_tx_free_;
  std::vector<SimTime> nic_rx_free_;
  std::vector<SimTime> port_free_;
  MatchTable<PendingSend> pending_sends_;
  MatchTable<PendingRecv> pending_recvs_;
  MatchTable<int> pending_irecvs_;
  MatchTable<Arrival> arrivals_;
};

}  // namespace

SimTime evaluate(const RunTrace& trace, const WhatIf& scenario) {
  Evaluator evaluator(trace, scenario);
  return evaluator.run();
}

}  // namespace soc::prof
