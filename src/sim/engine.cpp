#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"

namespace soc::sim {

const char* lane_name(Lane lane) {
  switch (lane) {
    case Lane::kCpu: return "cpu";
    case Lane::kGpu: return "gpu";
    case Lane::kCopy: return "copy";
    case Lane::kNicTx: return "nic-tx";
    case Lane::kNicRx: return "nic-rx";
    case Lane::kCount: break;
  }
  return "?";
}

// Default observer callbacks are no-ops so implementations override only
// the streams they consume (and the vtable is anchored here).
void EngineObserver::on_run_begin(const Placement&, const EngineConfig&) {}
void EngineObserver::on_dispatch(const DispatchRecord&) {}
void EngineObserver::on_span(const SpanRecord&) {}
void EngineObserver::on_message(const MessageRecord&) {}
void EngineObserver::on_pending(int, int) {}
void EngineObserver::on_run_end(const RunStats&) {}

Placement Placement::block(int ranks, int nodes) {
  SOC_CHECK(ranks > 0 && nodes > 0, "placement needs positive sizes");
  SOC_CHECK(ranks % nodes == 0, "block placement needs ranks % nodes == 0");
  Placement p;
  p.ranks = ranks;
  p.nodes = nodes;
  p.node_of.resize(static_cast<std::size_t>(ranks));
  const int per_node = ranks / nodes;
  for (int r = 0; r < ranks; ++r) p.node_of[static_cast<std::size_t>(r)] = r / per_node;
  return p;
}

Engine::Engine(Placement placement, const CostModel& cost_model,
               EngineConfig config)
    : placement_(std::move(placement)), cost_(cost_model), config_(config) {
  SOC_CHECK(placement_.ranks > 0, "no ranks");
  SOC_CHECK(static_cast<int>(placement_.node_of.size()) == placement_.ranks,
            "placement size mismatch");
  SOC_CHECK(placement_.nodes == 1 || placement_.ranks < (1 << 15),
            "protocol event keys support < 32768 ranks");
}

std::uint64_t Engine::wake_key(int rank) {
  // Class bit set: wake-ups sort after protocol messages at equal times
  // (a proto can schedule a same-time wake, never the reverse).
  return (1ULL << 63) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 47);
}

std::uint64_t Engine::next_proto_key(int emitter_rank, int dst_rank) {
  // Class bit clear; (emitter, per-emitter seq) makes the key unique among
  // all coexisting events.
  const std::uint32_t seq =
      proto_seq_[static_cast<std::size_t>(emitter_rank)]++;
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_rank))
          << 47) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(emitter_rank))
          << 32) |
         seq;
}

bool Engine::use_protocol(int src_rank, int dst_rank) const {
  return placement_.node_of[static_cast<std::size_t>(src_rank)] !=
         placement_.node_of[static_cast<std::size_t>(dst_rank)];
}

std::vector<double> ideal_balance_scales(const RunStats& measured) {
  const std::size_t n = measured.ranks.size();
  SOC_CHECK(n > 0, "no ranks in run");
  std::vector<double> compute(n, 0.0);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& [phase, t] : measured.ranks[r].phase_compute) {
      compute[r] += static_cast<double>(t);
    }
    total += compute[r];
  }
  const double avg = total / static_cast<double>(n);
  std::vector<double> scales(n, 1.0);
  for (std::size_t r = 0; r < n; ++r) {
    if (compute[r] > 0.0) scales[r] = avg / compute[r];
  }
  return scales;
}

void Engine::add_phase_compute(int rank, SimTime duration) {
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  rs.phase_compute[states_[static_cast<std::size_t>(rank)].phase] += duration;
}

void Engine::bin_busy(std::vector<double>& lane, SimTime start, SimTime end) {
  if (end <= start) return;
  const SimTime bin_ns = static_cast<SimTime>(
      std::llround(kTimelineBinSeconds * static_cast<double>(kSecond)));
  const std::size_t last_bin = static_cast<std::size_t>(end / bin_ns);
  if (lane.size() <= last_bin) lane.resize(last_bin + 1, 0.0);
  SimTime t = start;
  while (t < end) {
    const SimTime bin = t / bin_ns;
    const SimTime bin_end = (bin + 1) * bin_ns;
    const SimTime chunk = std::min(end, bin_end) - t;
    lane[static_cast<std::size_t>(bin)] += to_seconds(chunk);
    t += chunk;
  }
}

void Engine::bin_value(std::vector<double>& lane, SimTime at, double value) {
  const SimTime bin_ns = static_cast<SimTime>(
      std::llround(kTimelineBinSeconds * static_cast<double>(kSecond)));
  const std::size_t bin = static_cast<std::size_t>(at / bin_ns);
  if (lane.size() <= bin) lane.resize(bin + 1, 0.0);
  lane[bin] += value;
}

namespace {

// Safety valve: a run whose simulated time passes this aborts.
constexpr double kMaxSimSeconds = 3.0e6;

// op.time_scale (straggler injection, the ideal-balance replay) stretches
// an op's duration AFTER cost evaluation, so memoized costs stay shared
// across scaled and unscaled ranks.
SimTime apply_time_scale(SimTime t, const Op& op) {
  if (op.time_scale == 1.0) return t;
  return static_cast<SimTime>(
      std::llround(static_cast<double>(t) * op.time_scale));
}

}  // namespace

RunStats Engine::run(const std::vector<Program>& programs) {
  SOC_CHECK(static_cast<int>(programs.size()) == placement_.ranks,
            "one program per rank required");
  ProgramSource source(programs);
  return run(source);
}

RunStats Engine::run(OpSource& source) {
  SOC_CHECK(source.ranks() == placement_.ranks,
            "one op stream per rank required");
  const std::size_t n = static_cast<std::size_t>(placement_.ranks);
  const std::size_t nodes = static_cast<std::size_t>(placement_.nodes);
  source_ = &source;

  states_.assign(n, RankState{});
  stats_ = RunStats{};
  stats_.ranks.assign(n, RankStats{});
  stats_.nodes.assign(nodes, NodeTimeline{});
  gpu_free_.assign(nodes, 0);
  copy_free_.assign(nodes, 0);
  nic_tx_free_.assign(nodes, 0);
  nic_rx_free_.assign(nodes, 0);
  port_free_.assign(nodes, 0);
  proto_seq_.assign(n, 0);

  // Reservations only: committed events are identical for any capacity.
  const std::size_t reserve = 2 * n + 16;
  queue_.clear();
  queue_.reserve(reserve);
  proto_pool_.clear();
  proto_free_.clear();
  pending_sends_.clear();
  pending_recvs_.clear();
  pending_irecvs_.clear();
  arrivals_.clear();
  pending_sends_.reserve(reserve);
  pending_recvs_.reserve(reserve);
  pending_irecvs_.reserve(reserve);
  arrivals_.reserve(reserve);
  digest_.clear();
  commits_.clear();
  ev_time_ = 0;
  ev_key_ = 0;
  audit_ = Fnv1a{};
  pending_send_depth_ = 0;
  pending_recv_depth_ = 0;
  if (observer_ != nullptr) observer_->on_run_begin(placement_, config_);

  const SimTime horizon = from_seconds(kMaxSimSeconds);
  for (std::size_t r = 0; r < n; ++r) wake(static_cast<int>(r), 0);

  // Commit records flush in canonical (time, key) order once per
  // completed timestamp: an event can still push another event at its own
  // time with a smaller key, so a timestamp is only complete when the
  // queue moves past it.
  SimTime flushed = 0;
  while (!queue_.empty()) {
    if (queue_.top().time != flushed) {
      replay_commits();
      flushed = queue_.top().time;
    }
    const KeyedEvent e = queue_.pop();
    SOC_CHECK(e.time <= horizon,
              "simulation exceeded kMaxSimSeconds (3e6 simulated seconds)");
    process_event(e);
  }
  replay_commits();
  source_ = nullptr;

  // Every rank must have drained its stream; otherwise communication
  // deadlocked (a send or recv never found its partner).
  for (std::size_t r = 0; r < n; ++r) {
    if (!states_[r].done) throw Error(deadlock_report());
  }
  // Matched keys leave their tables, so with every rank done any entry
  // left behind is an endpoint nothing will ever match: an eager send or
  // isend nobody received, or an irecv posted with no later kWaitAll.
  // (A parked send or recv blocks its rank, which the loop above reports.)
  const auto check_drained = [](const auto& table, const char* kind) {
    if (table.empty()) return;
    const MsgKey& k = table.any_key();
    std::ostringstream os;
    os << "unmatched message at end of run: " << kind << " src=" << k.src
       << " dst=" << k.dst << " tag=" << k.tag;
    throw Error(os.str());
  };
  check_drained(arrivals_, "send never received");
  check_drained(pending_irecvs_, "irecv never matched");

  for (std::size_t r = 0; r < n; ++r) {
    const RankStats& rs = stats_.ranks[r];
    stats_.makespan = std::max(stats_.makespan, rs.finish_time);
    stats_.total_net_bytes += rs.net_bytes_sent;
    stats_.total_dram_bytes += rs.dram_bytes;
    stats_.total_gpu_dram_bytes += rs.gpu_dram_bytes;
    stats_.total_flops += rs.flops;
    stats_.total_gpu_flops += rs.gpu_flops;
  }
  stats_.event_checksum = audit_.value();
  if (observer_ != nullptr) observer_->on_run_end(stats_);
  return stats_;
}

std::string Engine::describe_wait(int rank) const {
  const RankState& st = states_[static_cast<std::size_t>(rank)];
  std::ostringstream os;
  os << "rank " << rank;
  if (!st.have_current) return os.str();
  const Op& op = st.current;
  os << " (" << op_kind_name(op.kind);
  if (op.kind == OpKind::kWaitAll) {
    os << ", " << st.unresolved_requests << " unresolved request"
       << (st.unresolved_requests == 1 ? "" : "s");
  } else {
    os << (op.kind == OpKind::kRecv ? " from " : " to ") << op.peer
       << ", tag " << op.tag;
  }
  os << ")";
  return os.str();
}

std::string Engine::deadlock_report() const {
  const int n = placement_.ranks;
  const auto state = [&](int r) -> const RankState& {
    return states_[static_cast<std::size_t>(r)];
  };
  // A parked send or recv waits on its peer (dispatch checked the peer
  // is a valid rank), a parked kWaitAll on its own requests.
  std::vector<int> peer(static_cast<std::size_t>(n), -1);
  int blocked = 0;
  for (int r = 0; r < n; ++r) {
    if (state(r).done) continue;
    ++blocked;
    const Op& op = state(r).current;
    if (state(r).have_current &&
        (op.kind == OpKind::kSend || op.kind == OpKind::kRecv)) {
      peer[static_cast<std::size_t>(r)] = op.peer;
    }
  }
  // The wait-for edge of rank r: its peer, unless that rank finished.
  // With at most one edge per rank, a walk either ends at a rank with
  // no edge or closes a cycle.
  const auto waits_on = [&](int r) {
    const int p = peer[static_cast<std::size_t>(r)];
    return p >= 0 && !state(p).done ? p : -1;
  };
  std::ostringstream os;
  std::vector<int> walked_from(static_cast<std::size_t>(n), -1);
  for (int start = 0; start < n; ++start) {
    int r = start;
    while (r >= 0 && walked_from[static_cast<std::size_t>(r)] < 0) {
      walked_from[static_cast<std::size_t>(r)] = start;
      r = waits_on(r);
    }
    if (r < 0 || walked_from[static_cast<std::size_t>(r)] != start) continue;
    // r closes a cycle; name it from its lowest rank.
    int first = r;
    for (int q = waits_on(r); q != r; q = waits_on(q)) {
      first = std::min(first, q);
    }
    os << "deadlock: wait-for cycle ";
    int q = first;
    do {
      os << describe_wait(q) << " -> ";
      q = waits_on(q);
    } while (q != first);
    os << "rank " << first << "; " << blocked << " of " << n
       << " ranks blocked";
    return os.str();
  }
  os << "deadlock: no wait-for cycle;";
  const char* sep = " ";
  for (int r = 0; r < n; ++r) {
    if (state(r).done) continue;
    os << sep << describe_wait(r);
    const int p = peer[static_cast<std::size_t>(r)];
    if (p >= 0 && state(p).done) os << " -> rank " << p << " (finished)";
    sep = ", ";
  }
  os << "; " << blocked << " of " << n << " ranks blocked";
  return os.str();
}

void Engine::send_proto(const ProtoMsg& p) {
  std::int32_t slot;
  if (!proto_free_.empty()) {
    slot = proto_free_.back();
    proto_free_.pop_back();
    proto_pool_[static_cast<std::size_t>(slot)] = p;
  } else {
    slot = static_cast<std::int32_t>(proto_pool_.size());
    proto_pool_.push_back(p);
  }
  // Negative payload marks a proto; the slot lives until the event pops.
  queue_.push(p.time, p.key, -(slot + 1));
}

void Engine::process_event(const KeyedEvent& e) {
  // Commit records emitted while this event executes inherit its
  // canonical (time, key), which is what replay_commits sorts on.
  ev_time_ = e.time;
  ev_key_ = e.key;
  if (e.payload < 0) {
    const std::int32_t slot = -(e.payload + 1);
    const ProtoMsg p = proto_pool_[static_cast<std::size_t>(slot)];
    proto_free_.push_back(slot);
    switch (p.kind) {
      case ProtoKind::kArrival: process_arrival(p, e.time); return;
      case ProtoKind::kRts: process_rts(p, e.time); return;
      case ProtoKind::kCts: process_cts(p, e.time); return;
    }
    SOC_CHECK(false, "unknown protocol message kind");
  }
  execute_next(e.payload, e.time);
}

namespace {

// Puts one timestamp's buffered records in the (time, key) order of the
// events that emitted them, keeping each event's records in emission
// order: a stable insertion sort.  Records arrive in pop order, which is
// already (time, key) order unless an event pushed a same-time event with
// a smaller key (a zero-latency message, a zero-overhead wake-up); only
// those late records shift left.  In the common in-order case that is one
// comparison per record, and unlike std::stable_sort it never allocates.
template <typename Rec>
void sort_by_event(std::vector<Rec>& recs) {
  const auto before = [](const Rec& a, const Rec& b) {
    return a.time < b.time || (a.time == b.time && a.key < b.key);
  };
  for (std::size_t i = 1; i < recs.size(); ++i) {
    if (!before(recs[i], recs[i - 1])) continue;
    const Rec rec = recs[i];
    std::size_t j = i;
    do {
      recs[j] = recs[j - 1];
      --j;
    } while (j > 0 && before(rec, recs[j - 1]));
    recs[j] = rec;
  }
}

}  // namespace

void Engine::replay_commits() {
  sort_by_event(digest_);
  for (const DigestRec& d : digest_) {
    audit_.mix_i64(d.time)
        .mix_u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.rank)))
        .mix_byte(d.kind)
        .mix_i64(d.bytes);
  }
  stats_.events_committed += digest_.size();
  digest_.clear();
  if (observer_ == nullptr) return;

  sort_by_event(commits_);
  for (const CommitRec& rec : commits_) {
    switch (rec.type) {
      case CommitType::kDispatch:
        observer_->on_dispatch(rec.u.dispatch);
        break;
      case CommitType::kSpan:
        observer_->on_span(rec.u.span);
        break;
      case CommitType::kMessage:
        observer_->on_message(rec.u.message);
        break;
      case CommitType::kPendingPark:
        pending_send_depth_ += rec.u.pending.sends;
        pending_recv_depth_ += rec.u.pending.recvs;
        observer_->on_pending(pending_send_depth_, pending_recv_depth_);
        break;
      case CommitType::kPendingMatch:
        pending_send_depth_ += rec.u.pending.sends;
        pending_recv_depth_ += rec.u.pending.recvs;
        break;
    }
  }
  commits_.clear();
}

void Engine::commit_dispatch(int rank, SimTime now, std::uint8_t kind,
                             Bytes bytes, int peer, int tag) {
  digest_.push_back(DigestRec{now, ev_key_, bytes, rank, kind});
  if (observer_ == nullptr) return;
  CommitRec rec;
  rec.time = ev_time_;
  rec.key = ev_key_;
  rec.type = CommitType::kDispatch;
  DispatchRecord& d = rec.u.dispatch;
  d.time = now;
  d.rank = rank;
  d.node = placement_.node_of[static_cast<std::size_t>(rank)];
  d.phase = states_[static_cast<std::size_t>(rank)].phase;
  d.kind = kind;
  d.bytes = bytes;
  d.pc = static_cast<std::int32_t>(states_[static_cast<std::size_t>(rank)].pc);
  d.peer = peer;
  d.tag = tag;
  commits_.push_back(rec);
}

void Engine::commit_span(Lane lane, int rank, int node, std::uint8_t kind,
                         SimTime start, SimTime end, SimTime queue_wait,
                         SimTime fabric_wait, Bytes bytes) {
  if (observer_ == nullptr) return;
  CommitRec rec;
  rec.time = ev_time_;
  rec.key = ev_key_;
  rec.type = CommitType::kSpan;
  SpanRecord& span = rec.u.span;
  span.lane = lane;
  span.rank = rank;
  span.node = node;
  span.phase = states_[static_cast<std::size_t>(rank)].phase;
  span.kind = kind;
  span.start = start;
  span.end = end;
  span.queue_wait = queue_wait;
  span.fabric_wait = fabric_wait;
  span.bytes = bytes;
  commits_.push_back(rec);
}

void Engine::commit_message(const MessageRecord& message) {
  if (observer_ == nullptr) return;
  CommitRec rec;
  rec.time = ev_time_;
  rec.key = ev_key_;
  rec.type = CommitType::kMessage;
  rec.u.message = message;
  commits_.push_back(rec);
}

void Engine::commit_pending(int dsends, int drecvs, bool park) {
  if (observer_ == nullptr) return;
  CommitRec rec;
  rec.time = ev_time_;
  rec.key = ev_key_;
  rec.type = park ? CommitType::kPendingPark : CommitType::kPendingMatch;
  rec.u.pending.sends = dsends;
  rec.u.pending.recvs = drecvs;
  commits_.push_back(rec);
}

void Engine::advance(int rank) {
  auto& st = states_[static_cast<std::size_t>(rank)];
  ++st.pc;
  st.have_current = false;
}

void Engine::wake(int rank, SimTime time) {
  queue_.push(time, wake_key(rank), rank);
}

void Engine::execute_next(int rank, SimTime now) {
  auto& st = states_[static_cast<std::size_t>(rank)];

  // Zero-cost ops (phase markers) are consumed inline; any op with real
  // duration schedules a wake-up and returns.  A parked op (rendezvous,
  // kWaitAll) stays buffered in st.current, so wake-ups re-dispatch it
  // without pulling the source again.
  for (;;) {
    if (!st.have_current) {
      if (st.exhausted || !source_->next(rank, now, &st.current)) {
        st.exhausted = true;
        break;
      }
      st.have_current = true;
    }
    const Op& op = st.current;
    // Every dispatch — including re-dispatch of a parked op after a
    // wake-up — is one record of the determinism digest.  The dispatch
    // sequence is exactly the engine's canonical total event order, so
    // equal digests mean equal schedules.
    commit_dispatch(rank, now, static_cast<std::uint8_t>(op.kind), op.bytes,
                    op.peer, op.tag);
    switch (op.kind) {
      case OpKind::kPhase:
        st.phase = op.phase;
        advance(rank);
        continue;
      case OpKind::kCpuCompute:
        start_compute(rank, now, op);
        return;
      case OpKind::kGpuKernel:
        start_gpu(rank, now, op);
        return;
      case OpKind::kCopyH2D:
      case OpKind::kCopyD2H:
        start_copy(rank, now, op);
        return;
      case OpKind::kSend:
        start_send(rank, now, op);
        return;
      case OpKind::kRecv:
        start_recv(rank, now, op);
        return;
      case OpKind::kIsend:
        start_isend(rank, now, op);
        return;  // rank re-scheduled after the posting overhead
      case OpKind::kIrecv:
        start_irecv(rank, now, op);
        return;
      case OpKind::kWaitAll:
        start_wait_all(rank, now);
        return;
      case OpKind::kDelay:
        start_delay(rank, now, op);
        return;
    }
  }
  st.done = true;
  commit_dispatch(rank, now, kRankDoneAudit, 0);
  stats_.ranks[static_cast<std::size_t>(rank)].finish_time =
      std::max(stats_.ranks[static_cast<std::size_t>(rank)].finish_time, now);
}

void Engine::start_compute(int rank, SimTime now, const Op& op) {
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  const int node = placement_.node_of[static_cast<std::size_t>(rank)];
  const SimTime dur = apply_time_scale(cost_.cpu_compute_time(rank, op), op);

  rs.cpu_busy += dur;
  rs.flops += op.flops;
  rs.instructions += op.instructions;
  rs.dram_bytes += op.dram_bytes;
  if (op.profile >= 0) rs.instructions_by_profile[op.profile] += op.instructions;
  add_phase_compute(rank, dur);
  bin_busy(stats_.nodes[static_cast<std::size_t>(node)].cpu_busy, now, now + dur);
  bin_value(stats_.nodes[static_cast<std::size_t>(node)].dram_bytes, now,
            static_cast<double>(op.dram_bytes));
  commit_span(Lane::kCpu, rank, node, static_cast<std::uint8_t>(op.kind),
              now, now + dur, 0, 0, op.dram_bytes);

  advance(rank);
  wake(rank, now + dur);
}

void Engine::start_delay(int rank, SimTime now, const Op& op) {
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  const int node = placement_.node_of[static_cast<std::size_t>(rank)];
  // An injected stall occupies the host like compute (the core spins or
  // the OS holds it), so it flows through cpu_busy, the per-phase
  // compute ledger, and the node timeline — which is exactly what lets
  // the LB/Ser/Trf decomposition and energy attribution explain the
  // damage with zero residual.  op.time_scale applies as on every op with
  // a duration (the ideal-balance replay sets it; the straggler decorator
  // leaves stalls alone).
  const SimTime dur = apply_time_scale(from_seconds(op.delay_seconds), op);

  rs.cpu_busy += dur;
  add_phase_compute(rank, dur);
  bin_busy(stats_.nodes[static_cast<std::size_t>(node)].cpu_busy, now, now + dur);
  commit_span(Lane::kCpu, rank, node, static_cast<std::uint8_t>(op.kind),
              now, now + dur, 0, 0, 0);

  advance(rank);
  wake(rank, now + dur);
}

void Engine::start_gpu(int rank, SimTime now, const Op& op) {
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  const int node = placement_.node_of[static_cast<std::size_t>(rank)];
  auto& gpu_free = gpu_free_[static_cast<std::size_t>(node)];

  const SimTime start = std::max(now, gpu_free);
  const SimTime dur = apply_time_scale(cost_.gpu_kernel_time(rank, op), op);
  gpu_free = start + dur;

  rs.gpu_queue_wait += start - now;
  rs.gpu_busy += dur;
  rs.flops += op.flops;
  rs.gpu_flops += op.flops;
  rs.dram_bytes += op.dram_bytes;
  rs.gpu_dram_bytes += op.dram_bytes;
  add_phase_compute(rank, dur);
  bin_busy(stats_.nodes[static_cast<std::size_t>(node)].gpu_busy, start,
           start + dur);
  bin_value(stats_.nodes[static_cast<std::size_t>(node)].dram_bytes, start,
            static_cast<double>(op.dram_bytes));
  commit_span(Lane::kGpu, rank, node, static_cast<std::uint8_t>(op.kind),
              start, start + dur, start - now, 0, op.dram_bytes);

  advance(rank);
  wake(rank, start + dur);
}

void Engine::start_copy(int rank, SimTime now, const Op& op) {
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  const int node = placement_.node_of[static_cast<std::size_t>(rank)];
  auto& copy_free = copy_free_[static_cast<std::size_t>(node)];

  const SimTime start = std::max(now, copy_free);
  const SimTime dur = apply_time_scale(cost_.copy_time(rank, op), op);
  copy_free = start + dur;

  rs.copy_busy += dur;
  // An explicit copy reads and writes main memory once each.  Copies are
  // NOT useful compute: they are host/device synchronization, which the
  // efficiency decomposition must see as serialization (§III-B.4).
  const Bytes traffic = op.bytes * 2;
  rs.dram_bytes += traffic;
  rs.gpu_dram_bytes += traffic;
  bin_value(stats_.nodes[static_cast<std::size_t>(node)].dram_bytes, start,
            static_cast<double>(traffic));
  commit_span(Lane::kCopy, rank, node, static_cast<std::uint8_t>(op.kind),
              start, start + dur, start - now, 0, op.bytes);

  advance(rank);
  wake(rank, start + dur);
}

void Engine::start_send(int rank, SimTime now, const Op& op) {
  SOC_CHECK(op.peer >= 0 && op.peer < placement_.ranks && op.peer != rank,
            "invalid send peer");
  auto& st = states_[static_cast<std::size_t>(rank)];
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  const MsgKey key{rank, op.peer, op.tag};

  if (use_protocol(rank, op.peer)) {
    if (op.bytes <= config_.eager_threshold) {
      // Eager: fire the payload at the receiver and keep running after
      // the posting overhead.  Matching happens receiver-side when the
      // kArrival message lands.
      launch_eager_remote(rank, op.peer, now, op.bytes, op.tag);
      const SimTime overhead = cost_.send_overhead(rank);
      rs.msg_overhead += overhead;
      advance(rank);
      wake(rank, now + overhead);
      return;
    }
    // Rendezvous: park and announce with an RTS that reaches the
    // receiver one wire latency from now.  The matching receive
    // computes the transfer there and unblocks us with a kCts.
    const int src_node = placement_.node_of[static_cast<std::size_t>(rank)];
    const int dst_node = placement_.node_of[static_cast<std::size_t>(op.peer)];
    ProtoMsg p;
    p.kind = ProtoKind::kRts;
    p.src_rank = rank;
    p.dst_rank = op.peer;
    p.tag = op.tag;
    p.phase = st.phase;
    p.bytes = op.bytes;
    p.requested = now;
    p.tx_est = nic_tx_free_[static_cast<std::size_t>(src_node)];
    p.time = now + cost_.message_latency(src_node, dst_node);
    p.key = next_proto_key(rank, op.peer);
    send_proto(p);
    return;
  }

  if (op.bytes <= config_.eager_threshold) {
    const SimTime arrival = launch_eager(rank, op.peer, now, op.bytes, op.tag);
    const SimTime overhead = cost_.send_overhead(rank);
    rs.msg_overhead += overhead;
    deliver_eager(key, arrival, op.bytes);
    advance(rank);
    wake(rank, now + overhead);
    return;
  }

  // Rendezvous: need a posted receive (blocking or non-blocking).
  PendingRecv pr{};
  if (pending_recvs_.take(key, &pr)) {
    commit_pending(0, -1, /*park=*/false);
    complete_rendezvous(rank, now, pr.rank, pr.ready, op.bytes, op.tag);
    return;
  }
  int recv_rank = -1;
  if (pending_irecvs_.take(key, &recv_rank)) {
    commit_pending(0, -1, /*park=*/false);
    const SimTime end = timed_transfer(rank, recv_rank, now, op.bytes, op.tag);
    stats_.ranks[static_cast<std::size_t>(rank)].send_blocked += end - now;
    advance(rank);
    wake(rank, end);
    resolve_request(recv_rank, end + cost_.recv_overhead(recv_rank));
    return;
  }
  pending_sends_.push(key, PendingSend{rank, now, op.bytes, st.phase, 0});
  commit_pending(1, 0, /*park=*/true);
}

void Engine::start_recv(int rank, SimTime now, const Op& op) {
  SOC_CHECK(op.peer >= 0 && op.peer < placement_.ranks && op.peer != rank,
            "invalid recv peer");
  auto& st = states_[static_cast<std::size_t>(rank)];
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  const MsgKey key{op.peer, rank, op.tag};

  // Eager message already delivered?
  Arrival a{};
  if (arrivals_.take(key, &a)) {
    const SimTime complete = std::max(now, a.time) + cost_.recv_overhead(rank);
    rs.recv_blocked += complete - now;
    advance(rank);
    wake(rank, complete);
    return;
  }

  // Rendezvous partner already waiting (parked sender, or its RTS)?
  PendingSend ps{};
  if (pending_sends_.take(key, &ps)) {
    commit_pending(-1, 0, /*park=*/false);
    if (use_protocol(op.peer, rank)) {
      const SimTime end =
          rendezvous_match(ps, rank, now, std::max(ps.ready, now), op.tag);
      rs.recv_blocked += end - now;
      advance(rank);
      wake(rank, end);
    } else {
      complete_rendezvous(ps.rank, ps.ready, rank, now, ps.bytes, op.tag);
    }
    return;
  }
  pending_recvs_.push(key, PendingRecv{rank, now, st.phase});
  commit_pending(0, 1, /*park=*/true);
}

void Engine::start_isend(int rank, SimTime now, const Op& op) {
  SOC_CHECK(op.peer >= 0 && op.peer < placement_.ranks && op.peer != rank,
            "invalid isend peer");
  auto& st = states_[static_cast<std::size_t>(rank)];
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];

  // Buffered semantics: the transfer launches now; the sender only pays
  // the posting overhead and its request completes locally.
  if (use_protocol(rank, op.peer)) {
    launch_eager_remote(rank, op.peer, now, op.bytes, op.tag);
    const SimTime overhead = cost_.send_overhead(rank);
    rs.msg_overhead += overhead;
    st.requests_complete = std::max(st.requests_complete, now + overhead);
    advance(rank);
    wake(rank, now + overhead);
    return;
  }

  const SimTime arrival = launch_eager(rank, op.peer, now, op.bytes, op.tag);
  const SimTime overhead = cost_.send_overhead(rank);
  rs.msg_overhead += overhead;
  st.requests_complete = std::max(st.requests_complete, now + overhead);
  deliver_eager(MsgKey{rank, op.peer, op.tag}, arrival, op.bytes);
  advance(rank);
  wake(rank, now + overhead);
}

void Engine::deliver_eager(const MsgKey& key, SimTime arrival, Bytes bytes) {
  PendingRecv pr{};
  int recv_rank = -1;
  if (pending_recvs_.take(key, &pr)) {
    commit_pending(0, -1, /*park=*/false);
    const SimTime complete =
        std::max(pr.ready, arrival) + cost_.recv_overhead(pr.rank);
    stats_.ranks[static_cast<std::size_t>(pr.rank)].recv_blocked +=
        complete - pr.ready;
    advance(pr.rank);
    wake(pr.rank, complete);
  } else if (pending_irecvs_.take(key, &recv_rank)) {
    commit_pending(0, -1, /*park=*/false);
    resolve_request(recv_rank, arrival + cost_.recv_overhead(recv_rank));
  } else {
    arrivals_.push(key, Arrival{arrival, bytes});
  }
}

void Engine::start_irecv(int rank, SimTime now, const Op& op) {
  SOC_CHECK(op.peer >= 0 && op.peer < placement_.ranks && op.peer != rank,
            "invalid irecv peer");
  auto& st = states_[static_cast<std::size_t>(rank)];
  const MsgKey key{op.peer, rank, op.tag};

  // Already-arrived (eager/isend) message?
  Arrival a{};
  PendingSend ps{};
  if (arrivals_.take(key, &a)) {
    st.requests_complete =
        std::max(st.requests_complete,
                 std::max(now, a.time) + cost_.recv_overhead(rank));
  } else {
    // A blocking sender already parked in rendezvous (or its RTS landed)?
    if (pending_sends_.take(key, &ps)) {
      commit_pending(-1, 0, /*park=*/false);
      if (use_protocol(op.peer, rank)) {
        const SimTime end = rendezvous_match(ps, rank, now,
                                             std::max(ps.ready, now), op.tag);
        st.requests_complete = std::max(st.requests_complete,
                                        end + cost_.recv_overhead(rank));
      } else {
        const SimTime end = timed_transfer(ps.rank, rank,
                                           std::max(ps.ready, now), ps.bytes,
                                           op.tag);
        auto& send_rs = stats_.ranks[static_cast<std::size_t>(ps.rank)];
        send_rs.send_blocked += end - ps.ready;
        advance(ps.rank);
        wake(ps.rank, end);
        st.requests_complete = std::max(st.requests_complete,
                                        end + cost_.recv_overhead(rank));
      }
    } else {
      ++st.unresolved_requests;
      pending_irecvs_.push(key, rank);
      commit_pending(0, 1, /*park=*/true);
    }
  }

  advance(rank);
  wake(rank, now + cost_.recv_overhead(rank));
}

void Engine::start_wait_all(int rank, SimTime now) {
  auto& st = states_[static_cast<std::size_t>(rank)];
  if (st.unresolved_requests > 0) {
    st.waiting_all = true;
    st.wait_park_time = now;
    return;  // resolve_request wakes us
  }
  const SimTime done = std::max(now, st.requests_complete);
  stats_.ranks[static_cast<std::size_t>(rank)].recv_blocked += done - now;
  st.requests_complete = 0;
  advance(rank);
  wake(rank, done);
}

void Engine::resolve_request(int rank, SimTime completion) {
  auto& st = states_[static_cast<std::size_t>(rank)];
  SOC_CHECK(st.unresolved_requests > 0, "resolve with no pending request");
  --st.unresolved_requests;
  st.requests_complete = std::max(st.requests_complete, completion);
  if (st.waiting_all && st.unresolved_requests == 0) {
    st.waiting_all = false;
    // The whole park-to-completion stretch was spent blocked in kWaitAll;
    // book it here because the re-dispatch below sees a zero residual
    // (its `now` IS requests_complete).
    stats_.ranks[static_cast<std::size_t>(rank)].recv_blocked +=
        st.requests_complete - st.wait_park_time;
    // Re-executes kWaitAll (pc still points at it) at the completion time.
    wake(rank, st.requests_complete);
  }
}

SimTime Engine::timed_transfer(int send_rank, int recv_rank, SimTime earliest,
                               Bytes bytes, int tag) {
  // Instant path only: same node.  Cross-node transfers go through the
  // protocol-message path and never reach here.
  const int node = placement_.node_of[static_cast<std::size_t>(send_rank)];
  const SimTime latency = cost_.message_latency(node, node);
  const SimTime end =
      earliest + latency + cost_.message_transfer_time(node, node, bytes);
  account_transfer(send_rank, recv_rank, earliest, end, bytes,
                   /*eager=*/false, tag, latency);
  return end;
}

void Engine::complete_rendezvous(int send_rank, SimTime send_ready,
                                 int recv_rank, SimTime recv_ready,
                                 Bytes bytes, int tag) {
  const SimTime end =
      timed_transfer(send_rank, recv_rank, std::max(send_ready, recv_ready),
                     bytes, tag);
  auto& send_rs = stats_.ranks[static_cast<std::size_t>(send_rank)];
  auto& recv_rs = stats_.ranks[static_cast<std::size_t>(recv_rank)];
  send_rs.send_blocked += end - send_ready;
  recv_rs.recv_blocked += end - recv_ready;

  advance(send_rank);
  advance(recv_rank);
  wake(send_rank, end);
  wake(recv_rank, end);
}

SimTime Engine::launch_eager(int src_rank, int dst_rank, SimTime now,
                             Bytes bytes, int tag) {
  // Instant path only: same node.
  const int node = placement_.node_of[static_cast<std::size_t>(src_rank)];
  const SimTime xfer = cost_.message_transfer_time(node, node, bytes);
  const SimTime latency = cost_.message_latency(node, node);
  const SimTime arrival = now + latency + xfer;
  account_transfer(src_rank, dst_rank, now, arrival, bytes, /*eager=*/true,
                   tag, latency);
  return arrival;
}

void Engine::launch_eager_remote(int src_rank, int dst_rank, SimTime now,
                                 Bytes bytes, int tag) {
  const int src_node = placement_.node_of[static_cast<std::size_t>(src_rank)];
  const int dst_node = placement_.node_of[static_cast<std::size_t>(dst_rank)];
  auto& nic_tx = nic_tx_free_[static_cast<std::size_t>(src_node)];
  const SimTime start = std::max(now, nic_tx);
  const SimTime xfer = cost_.message_transfer_time(src_node, dst_node, bytes);
  const SimTime latency = cost_.message_latency(src_node, dst_node);
  const SimTime arrival = start + latency + xfer;
  nic_tx = start + xfer;

  // Sender-side accounting; the receiver side books when kArrival lands.
  auto& send_rs = stats_.ranks[static_cast<std::size_t>(src_rank)];
  ++send_rs.messages_sent;
  send_rs.dram_bytes += bytes;
  bin_value(stats_.nodes[static_cast<std::size_t>(src_node)].dram_bytes, start,
            static_cast<double>(bytes));
  send_rs.net_bytes_sent += bytes;
  bin_busy(stats_.nodes[static_cast<std::size_t>(src_node)].nic_busy, start,
           arrival);
  commit_span(Lane::kNicTx, src_rank, src_node,
              static_cast<std::uint8_t>(OpKind::kIsend), start, arrival,
              start - now, 0, bytes);

  ProtoMsg p;
  p.kind = ProtoKind::kArrival;
  p.src_rank = src_rank;
  p.dst_rank = dst_rank;
  p.tag = tag;
  p.phase = states_[static_cast<std::size_t>(src_rank)].phase;
  p.bytes = bytes;
  p.requested = now;
  p.start = start;
  p.end = arrival;
  p.latency = latency;
  p.time = arrival;
  p.key = next_proto_key(src_rank, dst_rank);
  send_proto(p);
}

void Engine::process_arrival(const ProtoMsg& p, SimTime now) {
  const int dst = p.dst_rank;
  const int dst_node = placement_.node_of[static_cast<std::size_t>(dst)];

  // Switch output-port queueing at the destination shifts delivery (not
  // the nominal wire end, which cost tables derive transfer times from).
  SimTime delivery = p.end;
  SimTime fabric_wait = 0;
  if (config_.bisection_bandwidth > 0.0) {
    auto& port = port_free_[static_cast<std::size_t>(dst_node)];
    delivery = std::max(p.end, port);
    fabric_wait = delivery - p.end;
    port = delivery + transfer_time(p.bytes, config_.bisection_bandwidth /
                                                 placement_.nodes);
  }
  auto& nic_rx = nic_rx_free_[static_cast<std::size_t>(dst_node)];
  nic_rx = std::max(nic_rx, delivery);

  // Receiver-side accounting.
  auto& recv_rs = stats_.ranks[static_cast<std::size_t>(dst)];
  ++recv_rs.messages_received;
  recv_rs.dram_bytes += p.bytes;
  bin_value(stats_.nodes[static_cast<std::size_t>(dst_node)].dram_bytes,
            p.start, static_cast<double>(p.bytes));
  recv_rs.net_bytes_received += p.bytes;
  bin_busy(stats_.nodes[static_cast<std::size_t>(dst_node)].nic_busy, p.start,
           p.end);
  if (observer_ != nullptr) {
    MessageRecord m;
    m.eager = true;
    m.inter_node = true;
    m.src_rank = p.src_rank;
    m.dst_rank = dst;
    m.phase = p.phase;
    m.tag = p.tag;
    m.bytes = p.bytes;
    m.start = p.start;
    m.end = p.end;
    m.latency = p.latency;
    m.delivery = delivery;
    m.sender_complete = 0;
    commit_message(m);
    commit_span(Lane::kNicRx, dst, dst_node,
                static_cast<std::uint8_t>(OpKind::kIsend), p.start, delivery,
                p.start - p.requested, fabric_wait, p.bytes);
  }

  deliver_eager(MsgKey{p.src_rank, dst, p.tag}, delivery, p.bytes);
  (void)now;
}

void Engine::process_rts(const ProtoMsg& p, SimTime now) {
  const int dst = p.dst_rank;
  const MsgKey key{p.src_rank, dst, p.tag};
  const PendingSend ps{p.src_rank, p.requested, p.bytes, p.phase, p.tx_est};

  PendingRecv pr{};
  if (pending_recvs_.take(key, &pr)) {
    commit_pending(0, -1, /*park=*/false);
    const SimTime end =
        rendezvous_match(ps, pr.rank, now, std::max(ps.ready, pr.ready), p.tag);
    stats_.ranks[static_cast<std::size_t>(pr.rank)].recv_blocked +=
        end - pr.ready;
    advance(pr.rank);
    wake(pr.rank, end);
    return;
  }
  int recv_rank = -1;
  if (pending_irecvs_.take(key, &recv_rank)) {
    commit_pending(0, -1, /*park=*/false);
    const SimTime end = rendezvous_match(ps, recv_rank, now, ps.ready, p.tag);
    resolve_request(recv_rank, end + cost_.recv_overhead(recv_rank));
    return;
  }
  // No receive posted yet: park the RTS at the receiver; the matching
  // recv/irecv dispatch picks it out of pending_sends.
  pending_sends_.push(key, ps);
  commit_pending(1, 0, /*park=*/true);
}

SimTime Engine::rendezvous_match(const PendingSend& ps, int recv_rank,
                                 SimTime match_time, SimTime start_base,
                                 int tag) {
  const int src_node = placement_.node_of[static_cast<std::size_t>(ps.rank)];
  const int dst_node = placement_.node_of[static_cast<std::size_t>(recv_rank)];

  // The wire can start once both endpoints agreed (start_base), the
  // sender's NIC looks free (the tx_est estimate the RTS carried), and
  // the receiver's NIC is free.  Receiver-side state is authoritative;
  // sender-side TX contention is best-effort by design (DESIGN.md §6).
  SimTime start = std::max({start_base, ps.tx_est,
                            nic_rx_free_[static_cast<std::size_t>(dst_node)]});
  SimTime fabric_wait = 0;
  if (config_.bisection_bandwidth > 0.0) {
    const SimTime nic_ready = start;
    auto& port = port_free_[static_cast<std::size_t>(dst_node)];
    start = std::max(start, port);
    fabric_wait = start - nic_ready;
    port = start + transfer_time(ps.bytes, config_.bisection_bandwidth /
                                               placement_.nodes);
  }
  const SimTime latency = cost_.message_latency(src_node, dst_node);
  const SimTime xfer =
      cost_.message_transfer_time(src_node, dst_node, ps.bytes);
  const SimTime end = start + latency + xfer;
  nic_rx_free_[static_cast<std::size_t>(dst_node)] = end;
  // The CTS travels back one forward latency from the match; when the
  // transfer itself is longer it simply rides its tail.
  const SimTime cts = std::max(end, match_time + latency);

  // Receiver-side accounting; the sender side books when kCts lands.
  auto& recv_rs = stats_.ranks[static_cast<std::size_t>(recv_rank)];
  ++recv_rs.messages_received;
  recv_rs.dram_bytes += ps.bytes;
  bin_value(stats_.nodes[static_cast<std::size_t>(dst_node)].dram_bytes, start,
            static_cast<double>(ps.bytes));
  recv_rs.net_bytes_received += ps.bytes;
  bin_busy(stats_.nodes[static_cast<std::size_t>(dst_node)].nic_busy, start,
           end);
  if (observer_ != nullptr) {
    MessageRecord m;
    m.eager = false;
    m.inter_node = true;
    m.src_rank = ps.rank;
    m.dst_rank = recv_rank;
    m.phase = ps.phase;
    m.tag = tag;
    m.bytes = ps.bytes;
    m.start = start;
    m.end = end;
    m.latency = latency;
    m.delivery = end;
    m.sender_complete = cts;
    commit_message(m);
    commit_span(Lane::kNicRx, recv_rank, dst_node,
                static_cast<std::uint8_t>(OpKind::kSend), start, end,
                start - start_base, fabric_wait, ps.bytes);
  }

  ProtoMsg cp;
  cp.kind = ProtoKind::kCts;
  cp.src_rank = ps.rank;
  cp.dst_rank = recv_rank;
  cp.tag = tag;
  cp.phase = ps.phase;
  cp.bytes = ps.bytes;
  cp.requested = ps.ready;
  cp.start = start;
  cp.end = end;
  cp.latency = latency;
  cp.fabric_wait = fabric_wait;
  cp.time = cts;
  cp.key = next_proto_key(recv_rank, ps.rank);
  send_proto(cp);
  return end;
}

void Engine::process_cts(const ProtoMsg& p, SimTime now) {
  const int src = p.src_rank;
  const int src_node = placement_.node_of[static_cast<std::size_t>(src)];

  // Sender-side accounting for the transfer the receiver committed.
  auto& send_rs = stats_.ranks[static_cast<std::size_t>(src)];
  send_rs.send_blocked += now - p.requested;
  ++send_rs.messages_sent;
  send_rs.dram_bytes += p.bytes;
  bin_value(stats_.nodes[static_cast<std::size_t>(src_node)].dram_bytes,
            p.start, static_cast<double>(p.bytes));
  send_rs.net_bytes_sent += p.bytes;
  bin_busy(stats_.nodes[static_cast<std::size_t>(src_node)].nic_busy, p.start,
           p.end);
  commit_span(Lane::kNicTx, src, src_node,
              static_cast<std::uint8_t>(OpKind::kSend), p.start, p.end,
              p.start - p.requested, p.fabric_wait, p.bytes);

  // The parked kSend is complete; run the rank from here.
  advance(src);
  wake(src, now);
}

void Engine::account_transfer(int src_rank, int dst_rank, SimTime start,
                              SimTime end, Bytes bytes, bool eager, int tag,
                              SimTime latency) {
  const int node = placement_.node_of[static_cast<std::size_t>(src_rank)];
  auto& send_rs = stats_.ranks[static_cast<std::size_t>(src_rank)];
  auto& recv_rs = stats_.ranks[static_cast<std::size_t>(dst_rank)];
  ++send_rs.messages_sent;
  ++recv_rs.messages_received;
  send_rs.intra_bytes_sent += bytes;

  if (observer_ != nullptr) {
    MessageRecord message;
    message.eager = eager;
    message.inter_node = false;
    message.src_rank = src_rank;
    message.dst_rank = dst_rank;
    message.phase = states_[static_cast<std::size_t>(src_rank)].phase;
    message.tag = tag;
    message.bytes = bytes;
    message.start = start;
    message.end = end;
    message.latency = latency;
    message.delivery = end;
    message.sender_complete = eager ? 0 : end;
    commit_message(message);
  }

  // Message payloads traverse main memory on both endpoints (the TX1 has
  // no GPUDirect, so all network data lands in DRAM first — §III-B.2):
  // the node's DRAM sees them twice.
  send_rs.dram_bytes += bytes;
  recv_rs.dram_bytes += bytes;
  auto& dram = stats_.nodes[static_cast<std::size_t>(node)].dram_bytes;
  bin_value(dram, start, static_cast<double>(bytes));
  bin_value(dram, start, static_cast<double>(bytes));
}

double RunStats::flops_per_second() const {
  const double s = seconds();
  return s > 0.0 ? total_flops / s : 0.0;
}

double RunStats::dram_bytes_per_second() const {
  const double s = seconds();
  return s > 0.0 ? static_cast<double>(total_dram_bytes) / s : 0.0;
}

double RunStats::net_bytes_per_second() const {
  const double s = seconds();
  return s > 0.0 ? static_cast<double>(total_net_bytes) / s : 0.0;
}

}  // namespace soc::sim
