#include "reference_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "common/error.h"

namespace soc::test {
namespace {

using sim::Op;
using sim::OpKind;

/// (src, dst, tag): matching is first in, first out per exact key.
using Channel = std::tuple<int, int, int>;

template <typename T>
using Fifos = std::map<Channel, std::deque<T>>;

template <typename T>
bool take(Fifos<T>& fifos, const Channel& channel, T* out) {
  const auto it = fifos.find(channel);
  if (it == fifos.end()) return false;
  *out = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) fifos.erase(it);
  return true;
}

/// A blocking send waiting for its receive (same node), or an RTS that
/// landed before its receive was posted (cross node).
struct ParkedSend {
  int rank = 0;
  SimTime ready = 0;
  Bytes bytes = 0;
  int phase = 0;
  SimTime tx_free = 0;
};
struct ParkedRecv {
  int rank = 0;
  SimTime ready = 0;
};

struct RankState {
  std::size_t pc = 0;
  int phase = 0;
  bool done = false;
  int unresolved = 0;         ///< Posted irecvs not matched yet.
  SimTime requests_done = 0;  ///< Latest known request completion.
  bool in_waitall = false;
};

class Reference {
 public:
  Reference(const std::vector<sim::Program>& programs,
            const sim::Placement& placement, const sim::CostModel& cost,
            const sim::EngineConfig& config)
      : programs_(programs), placement_(placement), cost_(cost),
        config_(config), ranks_(programs.size()),
        finish_(programs.size(), 0), seq_(programs.size(), 0),
        gpu_free_(placement.nodes, 0), copy_free_(placement.nodes, 0),
        tx_free_(placement.nodes, 0), rx_free_(placement.nodes, 0),
        port_free_(placement.nodes, 0) {
    SOC_CHECK(static_cast<int>(programs.size()) == placement.ranks,
              "reference: one program per rank required");
  }
  // Queued events capture `this`.
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  ReferenceRun run() {
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      wake(static_cast<int>(r), 0);
    }
    while (!events_.empty()) {
      const auto it = events_.begin();
      const SimTime now = it->first.first;
      const Action action = std::move(it->second);
      events_.erase(it);
      action(now);
    }
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      SOC_CHECK(ranks_[r].done,
                "reference: rank " + std::to_string(r) + " never finished");
    }
    SOC_CHECK(arrived_.empty() && irecvs_.empty(),
              "reference: message endpoint left unmatched");
    ReferenceRun out;
    out.finish = finish_;
    out.makespan = *std::max_element(finish_.begin(), finish_.end());
    out.messages = std::move(messages_);
    return out;
  }

 private:
  int node(int rank) const {
    return placement_.node_of[static_cast<std::size_t>(rank)];
  }
  bool remote(int src, int dst) const { return node(src) != node(dst); }
  RankState& state(int rank) { return ranks_[static_cast<std::size_t>(rank)]; }

  // --- events: (time, key), key = class:1 | dst:15 | emitter:15 | seq:32;
  //     class 0 (protocol messages) sorts before class 1 (wake-ups).
  using Action = std::function<void(SimTime now)>;
  void wake(int rank, SimTime at) {
    push(at, (std::uint64_t{1} << 63) | (static_cast<std::uint64_t>(rank) << 47),
         [this, rank](SimTime now) { dispatch(rank, now); });
  }
  /// A cross-node protocol message from `emitter` to `dst`.
  void post(SimTime at, int emitter, int dst, Action action) {
    push(at,
         (static_cast<std::uint64_t>(dst) << 47) |
             (static_cast<std::uint64_t>(emitter) << 32) |
             seq_[static_cast<std::size_t>(emitter)]++,
         std::move(action));
  }
  void push(SimTime at, std::uint64_t key, Action action) {
    const bool unique =
        events_.emplace(std::make_pair(at, key), std::move(action)).second;
    SOC_CHECK(unique, "reference: two events share a (time, key)");
  }
  /// The rank's current op is over; it runs its next op at `at`.
  void finish_op(int rank, SimTime at) {
    ++state(rank).pc;
    wake(rank, at);
  }

  static SimTime scaled(SimTime t, const Op& op) {
    if (op.time_scale == 1.0) return t;
    return static_cast<SimTime>(
        std::llround(static_cast<double>(t) * op.time_scale));
  }
  /// A FIFO lane: service starts when both the op and the lane are ready.
  static SimTime serve(SimTime& lane_free, SimTime now, SimTime duration) {
    lane_free = std::max(now, lane_free) + duration;
    return lane_free;
  }

  void record(bool eager, int src, int dst, int phase, int tag, Bytes bytes,
              SimTime start, SimTime end, SimTime latency, SimTime delivery,
              SimTime sender_complete) {
    sim::MessageRecord m;
    m.eager = eager;
    m.inter_node = remote(src, dst);
    m.src_rank = src;
    m.dst_rank = dst;
    m.phase = phase;
    m.tag = tag;
    m.bytes = bytes;
    m.start = start;
    m.end = end;
    m.latency = latency;
    m.delivery = delivery;
    m.sender_complete = sender_complete;
    messages_.push_back(m);
  }

  void dispatch(int rank, SimTime now) {
    RankState& st = state(rank);
    const sim::Program& program = programs_[static_cast<std::size_t>(rank)];
    while (st.pc < program.size() && program[st.pc].kind == OpKind::kPhase) {
      st.phase = program[st.pc].phase;
      ++st.pc;
    }
    if (st.pc == program.size()) {
      st.done = true;
      finish_[static_cast<std::size_t>(rank)] = now;
      return;
    }
    const Op& op = program[st.pc];
    const std::size_t n = static_cast<std::size_t>(node(rank));
    switch (op.kind) {
      case OpKind::kCpuCompute:
        finish_op(rank, now + scaled(cost_.cpu_compute_time(rank, op), op));
        return;
      case OpKind::kDelay:
        finish_op(rank, now + scaled(from_seconds(op.delay_seconds), op));
        return;
      case OpKind::kGpuKernel:
        finish_op(rank, serve(gpu_free_[n], now,
                              scaled(cost_.gpu_kernel_time(rank, op), op)));
        return;
      case OpKind::kCopyH2D:
      case OpKind::kCopyD2H:
        finish_op(rank, serve(copy_free_[n], now,
                              scaled(cost_.copy_time(rank, op), op)));
        return;
      case OpKind::kSend:
        send(rank, now, op);
        return;
      case OpKind::kRecv:
        recv(rank, now, op);
        return;
      case OpKind::kIsend:
        isend(rank, now, op);
        return;
      case OpKind::kIrecv:
        irecv(rank, now, op);
        return;
      case OpKind::kWaitAll:
        waitall(rank, now);
        return;
      case OpKind::kPhase:
        break;
    }
    SOC_CHECK(false, "reference: unexpected op kind");
  }

  // --- the same-node instant path: nothing queues, both sides book at once.
  SimTime local_transfer(int src, int dst, SimTime start, Bytes bytes,
                         int tag, bool eager) {
    const int n = node(src);
    const SimTime latency = cost_.message_latency(n, n);
    const SimTime end =
        start + latency + cost_.message_transfer_time(n, n, bytes);
    record(eager, src, dst, state(src).phase, tag, bytes, start, end, latency,
           end, eager ? 0 : end);
    return end;
  }
  void local_rendezvous(int src, SimTime send_ready, int dst,
                        SimTime recv_ready, Bytes bytes, int tag) {
    const SimTime end = local_transfer(
        src, dst, std::max(send_ready, recv_ready), bytes, tag, false);
    finish_op(src, end);
    finish_op(dst, end);
  }

  // --- cross-node eager: the sender's NIC-TX is a FIFO lane, and the
  //     payload lands behind the destination's switch port (when the
  //     switch is finite) and NIC-RX.
  void remote_eager(int src, int dst, SimTime now, Bytes bytes, int tag) {
    const int sn = node(src);
    const std::size_t dn = static_cast<std::size_t>(node(dst));
    SimTime& tx_free = tx_free_[static_cast<std::size_t>(sn)];
    const SimTime start = std::max(now, tx_free);
    const SimTime latency = cost_.message_latency(sn, static_cast<int>(dn));
    const SimTime xfer =
        cost_.message_transfer_time(sn, static_cast<int>(dn), bytes);
    const SimTime end = start + latency + xfer;
    tx_free = start + xfer;
    const int phase = state(src).phase;
    post(end, src, dst, [=, this](SimTime) {
      SimTime delivery = end;
      if (config_.bisection_bandwidth > 0.0) {
        delivery = std::max(end, port_free_[dn]);
        port_free_[dn] = delivery + transfer_time(bytes,
                                                  config_.bisection_bandwidth /
                                                      placement_.nodes);
      }
      rx_free_[dn] = std::max(rx_free_[dn], delivery);
      record(true, src, dst, phase, tag, bytes, start, end, latency, delivery,
             0);
      deliver({src, dst, tag}, delivery);
    });
  }

  /// An eager payload reached its receiver at `arrival`.
  void deliver(const Channel& channel, SimTime arrival) {
    ParkedRecv pr;
    int irecv_rank = -1;
    if (take(recvs_, channel, &pr)) {
      finish_op(pr.rank, std::max(pr.ready, arrival) +
                             cost_.recv_overhead(pr.rank));
    } else if (take(irecvs_, channel, &irecv_rank)) {
      resolve(irecv_rank, arrival + cost_.recv_overhead(irecv_rank));
    } else {
      arrived_[channel].push_back(arrival);
    }
  }

  /// A cross-node rendezvous, computed receiver-side when the RTS meets
  /// its receive.  Returns the transfer end.
  SimTime remote_rendezvous(const ParkedSend& ps, int recv_rank,
                            SimTime match_time, SimTime start_base, int tag) {
    const int sn = node(ps.rank);
    const std::size_t dn = static_cast<std::size_t>(node(recv_rank));
    SimTime start = std::max({start_base, ps.tx_free, rx_free_[dn]});
    if (config_.bisection_bandwidth > 0.0) {
      start = std::max(start, port_free_[dn]);
      port_free_[dn] = start + transfer_time(ps.bytes,
                                             config_.bisection_bandwidth /
                                                 placement_.nodes);
    }
    const SimTime latency =
        cost_.message_latency(sn, static_cast<int>(dn));
    const SimTime end =
        start + latency +
        cost_.message_transfer_time(sn, static_cast<int>(dn), ps.bytes);
    rx_free_[dn] = end;
    // The CTS floor: the clear-to-send travels back one latency from the
    // match, and a longer transfer rides its tail.
    const SimTime cts = std::max(end, match_time + latency);
    record(false, ps.rank, recv_rank, ps.phase, tag, ps.bytes, start, end,
           latency, end, cts);
    // The clear-to-send unblocks the parked sender.
    post(cts, recv_rank, ps.rank,
         [this, src = ps.rank](SimTime now) { finish_op(src, now); });
    return end;
  }

  /// The request-to-send of `ps` reached its receiver.
  void on_rts(const ParkedSend& ps, const Channel& channel, SimTime now) {
    const int tag = std::get<2>(channel);
    ParkedRecv pr;
    int irecv_rank = -1;
    if (take(recvs_, channel, &pr)) {
      finish_op(pr.rank, remote_rendezvous(ps, pr.rank, now,
                                           std::max(ps.ready, pr.ready), tag));
    } else if (take(irecvs_, channel, &irecv_rank)) {
      resolve(irecv_rank, remote_rendezvous(ps, irecv_rank, now, ps.ready, tag) +
                              cost_.recv_overhead(irecv_rank));
    } else {
      sends_[channel].push_back(ps);
    }
  }

  void send(int rank, SimTime now, const Op& op) {
    const int dst = op.peer;
    const Channel channel{rank, dst, op.tag};
    const bool eager = op.bytes <= config_.eager_threshold;
    if (remote(rank, dst)) {
      if (eager) {
        remote_eager(rank, dst, now, op.bytes, op.tag);
        finish_op(rank, now + cost_.send_overhead(rank));
        return;
      }
      // Rendezvous: park; the RTS reaches the receiver one latency later,
      // carrying the sender NIC's TX free time as of now.
      const ParkedSend ps{rank, now, op.bytes, state(rank).phase,
                          tx_free_[static_cast<std::size_t>(node(rank))]};
      post(now + cost_.message_latency(node(rank), node(dst)), rank, dst,
           [this, ps, channel](SimTime at) { on_rts(ps, channel, at); });
      return;
    }
    if (eager) {
      deliver(channel, local_transfer(rank, dst, now, op.bytes, op.tag, true));
      finish_op(rank, now + cost_.send_overhead(rank));
      return;
    }
    ParkedRecv pr;
    int irecv_rank = -1;
    if (take(recvs_, channel, &pr)) {
      local_rendezvous(rank, now, pr.rank, pr.ready, op.bytes, op.tag);
    } else if (take(irecvs_, channel, &irecv_rank)) {
      const SimTime end =
          local_transfer(rank, dst, now, op.bytes, op.tag, false);
      finish_op(rank, end);
      resolve(irecv_rank, end + cost_.recv_overhead(irecv_rank));
    } else {
      sends_[channel].push_back(
          ParkedSend{rank, now, op.bytes, state(rank).phase, 0});
    }
  }

  void recv(int rank, SimTime now, const Op& op) {
    const Channel channel{op.peer, rank, op.tag};
    SimTime arrival = 0;
    ParkedSend ps;
    if (take(arrived_, channel, &arrival)) {
      finish_op(rank, std::max(now, arrival) + cost_.recv_overhead(rank));
    } else if (take(sends_, channel, &ps)) {
      if (remote(op.peer, rank)) {
        finish_op(rank, remote_rendezvous(ps, rank, now,
                                          std::max(ps.ready, now), op.tag));
      } else {
        local_rendezvous(ps.rank, ps.ready, rank, now, ps.bytes, op.tag);
      }
    } else {
      recvs_[channel].push_back(ParkedRecv{rank, now});
    }
  }

  // --- non-blocking requests: an isend completes with its posting, an
  //     irecv when its message has arrived and been received.
  void isend(int rank, SimTime now, const Op& op) {
    if (remote(rank, op.peer)) {
      remote_eager(rank, op.peer, now, op.bytes, op.tag);
    } else {
      deliver({rank, op.peer, op.tag},
              local_transfer(rank, op.peer, now, op.bytes, op.tag, true));
    }
    const SimTime posted = now + cost_.send_overhead(rank);
    state(rank).requests_done = std::max(state(rank).requests_done, posted);
    finish_op(rank, posted);
  }

  void irecv(int rank, SimTime now, const Op& op) {
    RankState& st = state(rank);
    const Channel channel{op.peer, rank, op.tag};
    SimTime arrival = 0;
    ParkedSend ps;
    if (take(arrived_, channel, &arrival)) {
      st.requests_done = std::max(
          st.requests_done,
          std::max(now, arrival) + cost_.recv_overhead(rank));
    } else if (take(sends_, channel, &ps)) {
      SimTime end = 0;
      if (remote(op.peer, rank)) {
        end = remote_rendezvous(ps, rank, now, std::max(ps.ready, now),
                                op.tag);
      } else {
        end = local_transfer(ps.rank, rank, std::max(ps.ready, now), ps.bytes,
                             op.tag, false);
        finish_op(ps.rank, end);
      }
      st.requests_done =
          std::max(st.requests_done, end + cost_.recv_overhead(rank));
    } else {
      ++st.unresolved;
      irecvs_[channel].push_back(rank);
    }
    finish_op(rank, now + cost_.recv_overhead(rank));
  }

  void waitall(int rank, SimTime now) {
    RankState& st = state(rank);
    if (st.unresolved > 0) {
      st.in_waitall = true;  // resolve() wakes the rank to re-dispatch
      return;
    }
    const SimTime done = std::max(now, st.requests_done);
    st.requests_done = 0;
    finish_op(rank, done);
  }

  void resolve(int rank, SimTime completion) {
    RankState& st = state(rank);
    SOC_CHECK(st.unresolved > 0, "reference: resolve with no open request");
    --st.unresolved;
    st.requests_done = std::max(st.requests_done, completion);
    if (st.in_waitall && st.unresolved == 0) {
      st.in_waitall = false;
      wake(rank, st.requests_done);
    }
  }

  const std::vector<sim::Program>& programs_;
  const sim::Placement& placement_;
  const sim::CostModel& cost_;
  const sim::EngineConfig config_;

  std::map<std::pair<SimTime, std::uint64_t>, Action> events_;
  std::vector<RankState> ranks_;
  std::vector<SimTime> finish_;
  std::vector<std::uint32_t> seq_;  ///< Per emitting rank.
  // Per node: when each FIFO lane is next free.
  std::vector<SimTime> gpu_free_;
  std::vector<SimTime> copy_free_;
  std::vector<SimTime> tx_free_;
  std::vector<SimTime> rx_free_;
  std::vector<SimTime> port_free_;  ///< Switch output port toward the node.
  Fifos<ParkedSend> sends_;
  Fifos<ParkedRecv> recvs_;
  Fifos<int> irecvs_;  ///< The posting rank.
  Fifos<SimTime> arrived_;  ///< Eager payloads waiting for their receive.
  std::vector<sim::MessageRecord> messages_;
};

auto fields(const sim::MessageRecord& m) {
  return std::tie(m.src_rank, m.dst_rank, m.tag, m.start, m.end, m.delivery,
                  m.sender_complete, m.latency, m.bytes, m.phase, m.eager,
                  m.inter_node);
}

void sort_messages(std::vector<sim::MessageRecord>& messages) {
  std::sort(messages.begin(), messages.end(),
            [](const sim::MessageRecord& a, const sim::MessageRecord& b) {
              return fields(a) < fields(b);
            });
}

std::string describe(const sim::MessageRecord& m) {
  std::ostringstream os;
  os << m.src_rank << "->" << m.dst_rank << " tag " << m.tag
     << (m.eager ? " eager" : " rendezvous")
     << (m.inter_node ? " inter-node" : " intra-node") << " phase "
     << m.phase << " bytes " << m.bytes << " start " << m.start << " end "
     << m.end << " latency " << m.latency << " delivery " << m.delivery
     << " sender_complete " << m.sender_complete;
  return os.str();
}

class MessageLog final : public sim::EngineObserver {
 public:
  void on_message(const sim::MessageRecord& m) override {
    messages.push_back(m);
  }
  std::vector<sim::MessageRecord> messages;
};

}  // namespace

ReferenceRun run_reference(const std::vector<sim::Program>& programs,
                           const sim::Placement& placement,
                           const sim::CostModel& cost,
                           const sim::EngineConfig& config) {
  ReferenceRun out = Reference(programs, placement, cost, config).run();
  sort_messages(out.messages);
  return out;
}

std::string engine_vs_reference(const std::vector<sim::Program>& programs,
                                const sim::Placement& placement,
                                const sim::CostModel& cost,
                                const sim::EngineConfig& config) {
  MessageLog log;
  sim::Engine engine(placement, cost, config);
  engine.set_observer(&log);
  const sim::RunStats stats = engine.run(programs);
  sort_messages(log.messages);
  const ReferenceRun want = run_reference(programs, placement, cost, config);

  std::ostringstream os;
  for (std::size_t r = 0; r < want.finish.size(); ++r) {
    if (stats.ranks[r].finish_time != want.finish[r]) {
      os << "rank " << r << " finishes at " << stats.ranks[r].finish_time
         << " in the engine, " << want.finish[r] << " in the reference";
      return os.str();
    }
  }
  if (stats.makespan != want.makespan) {
    os << "makespan " << stats.makespan << " in the engine, "
       << want.makespan << " in the reference";
    return os.str();
  }
  if (log.messages.size() != want.messages.size()) {
    os << log.messages.size() << " messages in the engine, "
       << want.messages.size() << " in the reference";
    return os.str();
  }
  for (std::size_t i = 0; i < want.messages.size(); ++i) {
    if (fields(log.messages[i]) != fields(want.messages[i])) {
      os << "message " << i << ": engine " << describe(log.messages[i])
         << "; reference " << describe(want.messages[i]);
      return os.str();
    }
  }
  return "";
}

}  // namespace soc::test
