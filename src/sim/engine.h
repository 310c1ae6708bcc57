// The replay engine.
//
// Pulls one op stream per rank from an OpSource (or replays pre-built
// Programs through the ProgramSource adapter) against a CostModel,
// resolving resource contention (per-node GPU, copy engine, NIC, switch
// port) and blocking message semantics.
//
// One serial loop pops a KeyedEventQueue.  Events are totally ordered by
// (time, key) where the key is intrinsic to the event (protocol class,
// endpoint ranks, per-rank sequence) rather than derived from push order.
// Cross-node traffic on a real network travels as timestamped protocol
// messages (eager arrival, rendezvous RTS/CTS), and the committed records
// of each timestamp are sorted by (time, key) before they reach the
// determinism digest and the observer.  All of this is simulated
// semantics: RunStats::event_checksum pins it.  See DESIGN.md §6.
//
// Scenario knobs implement the DIMEMAS-style what-if replays of the
// paper's scalability methodology: `ideal_network` zeroes latency and
// transfer time while preserving all dependencies (isolates Ser), and
// `compute_scale` rescales each rank's compute durations (ideal load
// balance sets these so every rank does the average amount of work).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/match_table.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/op.h"
#include "sim/op_stream.h"
#include "sim/stats.h"

namespace soc::sim {

/// What-if replay configuration.
struct Scenario {
  bool ideal_network = false;       ///< Zero-latency, infinite-bandwidth net.
  std::vector<double> compute_scale;  ///< Per-rank multiplier (empty = 1.0).
};

/// Per-rank compute_scale factors that equalize total compute across
/// ranks (LB = 1), derived from a measured run.  Both the ideal-balance
/// trace replay and the single-pass what-if projection use these.
std::vector<double> ideal_balance_scales(const RunStats& measured);

/// Resource lanes a committed span can occupy.  Observers key queue-wait
/// histograms and timeline rows off these.
enum class Lane : std::uint8_t {
  kCpu = 0,  ///< The rank's host core (compute ops).
  kGpu,      ///< The node's shared GPU.
  kCopy,     ///< The node's copy engine.
  kNicTx,    ///< NIC transmit side (inter-node transfers only).
  kNicRx,    ///< NIC receive side (inter-node transfers only).
  kCount,
};

inline constexpr std::size_t kLaneCount = static_cast<std::size_t>(Lane::kCount);

/// Short stable identifier ("cpu", "gpu", "copy", "nic-tx", "nic-rx").
const char* lane_name(Lane lane);

/// One committed dispatch: exactly the record the determinism auditor
/// folds into RunStats::event_checksum, plus placement context.
struct DispatchRecord {
  SimTime time = 0;       ///< Dispatch time (the audited timestamp).
  int rank = 0;
  int node = 0;
  int phase = 0;          ///< The rank's phase at dispatch.
  std::uint8_t kind = 0;  ///< OpKind byte, or 0xFF when a rank drains.
  Bytes bytes = 0;
  /// Op index in the rank's program (program size for the drain record).
  /// A kWaitAll op that parks is re-dispatched on wake with the same pc,
  /// so consumers can fold the pair back into one op instance.
  std::int32_t pc = 0;
  std::int32_t peer = -1;  ///< Partner rank for message ops (-1 otherwise).
  std::int32_t tag = 0;    ///< Message tag for message ops.
};

/// One timed occupancy of a resource lane.
struct SpanRecord {
  Lane lane = Lane::kCpu;
  int rank = 0;            ///< Rank whose op occupies the lane.
  int node = 0;            ///< Node hosting the lane.
  int phase = 0;
  std::uint8_t kind = 0;   ///< OpKind byte of the originating op.
  SimTime start = 0;
  SimTime end = 0;
  SimTime queue_wait = 0;  ///< start minus request time (contention).
  SimTime fabric_wait = 0; ///< Portion of queue_wait spent on the fabric.
  Bytes bytes = 0;         ///< Message/copy size; DRAM bytes for compute.
};

/// One matched message transfer (fires once per send/recv pair, at the
/// moment the receive side commits the transfer).
struct MessageRecord {
  bool eager = false;       ///< Eager protocol (false = rendezvous).
  bool inter_node = false;
  int src_rank = 0;
  int dst_rank = 0;
  int phase = 0;            ///< Sender's phase.
  int tag = 0;              ///< Message tag (matches the endpoints' ops).
  Bytes bytes = 0;
  SimTime start = 0;
  SimTime end = 0;
  SimTime latency = 0;      ///< Latency share of [start, end); the rest is
                            ///< wire/copy transfer time.
  /// When the payload was actually available to the receiver: `end` plus
  /// any switch output-port queueing (== end when the port was free).
  /// Receiver-side completion math keys off this, not off `end`, which
  /// stays the *nominal* start + latency + transfer so cost tables
  /// derived from traces remain pure.
  SimTime delivery = 0;
  /// Rendezvous only: when the sender unblocked (the CTS timestamp,
  /// >= end).  0 for eager transfers (the sender never blocks on them).
  SimTime sender_complete = 0;
};

struct EngineConfig;

/// Hook interface over the engine's committed event stream.
///
/// Attach with Engine::set_observer before run().  Every callback fires in
/// the engine's deterministic total (time, key) commit order, so anything
/// an observer derives inherits the determinism promise (equal
/// configurations produce equal observations).
/// When no observer is attached the engine skips span/message/pending
/// buffering entirely — src/obs/ builds the metrics registry and
/// Chrome-trace exporter on top of this interface.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  /// A run is starting; `placement` maps ranks to nodes.
  virtual void on_run_begin(const Placement& placement,
                            const EngineConfig& config);
  /// One committed dispatch (the determinism-digest stream).
  virtual void on_dispatch(const DispatchRecord& record);
  /// One resource-lane occupancy with its queue-wait breakdown.
  virtual void on_span(const SpanRecord& span);
  /// One matched message transfer.
  virtual void on_message(const MessageRecord& message);
  /// A message endpoint parked unmatched; arguments are the current
  /// pending-send / pending-receive depths (posted irecvs included).
  virtual void on_pending(int pending_sends, int pending_recvs);
  /// The run finished; `stats` carries the final aggregates and digest.
  virtual void on_run_end(const RunStats& stats);
};

/// Engine tuning knobs.
struct EngineConfig {
  /// Messages at or below this size use the eager protocol (sender does
  /// not block on the receiver); larger messages rendezvous.
  Bytes eager_threshold = 8 * kKiB;
  /// Width of the busy-time timeline bins (power-model input).
  double timeline_bin_seconds = 0.1;
  /// Aggregate switch-fabric capacity in bytes/s shared by all inter-node
  /// transfers (0 = unlimited).  Modeled as one output-port pipe per
  /// destination node with rate bisection_bandwidth / nodes: flows
  /// converging on a node queue on its switch port.
  double bisection_bandwidth = 0.0;
  /// Safety valve: abort if simulated time exceeds this many seconds.
  double max_sim_seconds = 3.0e6;
};

class Engine {
 public:
  Engine(Placement placement, const CostModel& cost_model,
         EngineConfig config = {}, Scenario scenario = {});

  /// Pulls every rank's op stream to completion and returns the
  /// collected stats.  Throws soc::Error on deadlock (a rank blocked on
  /// an unmatched send/recv), on a message endpoint still unmatched when
  /// every rank has finished (an eager send or isend nobody received, an
  /// irecv no send matched), or on misuse.  The source is single-use:
  /// the run consumes it.
  RunStats run(OpSource& source);

  /// Replays pre-built programs (wraps them in a ProgramSource).
  RunStats run(const std::vector<Program>& programs);

  /// Attaches a (non-owning) observer over the committed event stream;
  /// nullptr detaches.  Must not change during run().
  void set_observer(EngineObserver* observer) { observer_ = observer; }

 private:
  struct RankState {
    std::size_t pc = 0;        ///< Index of the current op in pull order.
    SimTime ready = 0;         ///< Time the rank becomes runnable.
    int phase = 0;             ///< Current phase id.
    bool blocked = false;      ///< Parked on an unmatched message.
    bool done = false;
    // -- Stream cursor: the op pulled from the source but not yet
    //    finished.  A parked op (rendezvous, kWaitAll) stays buffered so
    //    wake-ups re-dispatch it without re-pulling the source; advance()
    //    clears the buffer together with bumping pc.
    Op current{};
    bool have_current = false;
    bool exhausted = false;    ///< The source returned end-of-stream.
    // -- Non-blocking request window (between Isend/Irecv and WaitAll) --
    int unresolved_requests = 0;   ///< Requests with unknown completion.
    SimTime requests_complete = 0; ///< Max known request completion.
    bool waiting_all = false;      ///< Parked inside kWaitAll.
    SimTime wait_park_time = 0;    ///< When kWaitAll parked (blocked-time
                                   ///< booking for the wake path).
  };

  // A posted-but-unmatched message endpoint.  For cross-node rendezvous
  // the entry is the RTS parked at the receiver, carrying the sender-side
  // facts the transfer math needs.
  struct PendingSend {
    int rank;
    SimTime ready;    ///< When the sender reached the send.
    Bytes bytes;
    int phase;
    SimTime tx_est;   ///< Sender NIC-TX availability estimate (cross-node).
  };
  struct PendingRecv {
    int rank;
    SimTime ready;
    int phase;
  };
  // Messages that already arrived (eager payload delivered, intra-node
  // instant arrival) and wait for their receive.
  struct Arrival {
    SimTime time;     ///< Delivery time (nominal arrival + port queueing).
    Bytes bytes;
  };

  /// Cross-node protocol messages.  A message lives in proto_pool_ from
  /// emission until its event pops.
  enum class ProtoKind : std::uint8_t {
    kArrival = 0,  ///< Eager payload lands at the receiver NIC.
    kRts,          ///< Rendezvous request-to-send (sender parks).
    kCts,          ///< Rendezvous clear-to-send (sender unblocks).
  };
  struct ProtoMsg {
    ProtoKind kind = ProtoKind::kArrival;
    int src_rank = 0;        ///< Message sender (transfer direction).
    int dst_rank = 0;        ///< Message receiver.
    int tag = 0;
    int phase = 0;           ///< Sender's phase at the send dispatch.
    Bytes bytes = 0;
    SimTime requested = 0;   ///< Sender's send-dispatch time t_s.
    SimTime start = 0;       ///< Wire start (arrival/cts).
    SimTime end = 0;         ///< Nominal wire end (arrival/cts).
    SimTime latency = 0;     ///< Latency share of [start, end).
    SimTime tx_est = 0;      ///< RTS: sender NIC-TX availability estimate.
    SimTime fabric_wait = 0; ///< CTS: receiver-port queueing share.
    SimTime time = 0;        ///< Event timestamp.
    std::uint64_t key = 0;   ///< Event key (assigned at emission).
  };

  /// One buffered observer/auditor record, stamped with the (time, key)
  /// of the event that emitted it.  Once a timestamp is complete the
  /// buffer is stable-sorted by (time, key), which puts whole events in
  /// the canonical order, and replayed through the digest and observer.
  enum class CommitType : std::uint8_t {
    kDispatch,
    kSpan,
    kMessage,
    kPendingPark,   ///< Depth delta that also fires on_pending.
    kPendingMatch,  ///< Silent depth delta (a match consumed an entry).
  };
  struct PendingDelta {
    std::int32_t sends = 0;
    std::int32_t recvs = 0;
  };
  struct CommitRec {
    SimTime time = 0;
    std::uint64_t key = 0;
    CommitType type = CommitType::kDispatch;
    union U {
      DispatchRecord dispatch;
      SpanRecord span;
      MessageRecord message;
      PendingDelta pending;
      U() : dispatch() {}
    } u;
  };

  // --- event keys: (class:1)(dst:15)(emitter:15)(seq:32).  Class 0 =
  //     protocol message (sorts before wakes at equal times: protos spawn
  //     same-time wakes, never the reverse), class 1 = rank wake-up.
  static std::uint64_t wake_key(int rank);
  std::uint64_t next_proto_key(int emitter_rank, int dst_rank);

  /// Queues a protocol message as an event at p.time.
  void send_proto(const ProtoMsg& p);
  /// Stable-sorts commits_ into the canonical (time, key) order and
  /// replays it through the audit digest, the pending-depth
  /// reconstruction, and the observer.  Clears the buffer (keeping
  /// capacity).
  void replay_commits();

  void process_event(const KeyedEvent& e);
  void process_arrival(const ProtoMsg& p, SimTime now);
  void process_rts(const ProtoMsg& p, SimTime now);
  void process_cts(const ProtoMsg& p, SimTime now);

  void execute_next(int rank, SimTime now);
  /// What a rank still running at the end waits on, e.g. "rank 1 (recv
  /// from 0, tag 8)" or "rank 2 (waitall, 1 unresolved request)".
  std::string describe_wait(int rank) const;
  /// The deadlock error for a run that ended with ranks still running:
  /// the first cycle of the wait-for graph (a parked send or recv waits
  /// on its peer; a parked kWaitAll on its own requests), or, with no
  /// cycle, every blocked rank's wait.
  std::string deadlock_report() const;
  /// Finishes the rank's current op: bumps pc and drops the stream
  /// buffer so the next execute_next pulls a fresh op.  Every site that
  /// used to advance a rank's pc — including cross-rank wake paths —
  /// must go through here, or the stream cursor desynchronizes.
  void advance(int rank);
  /// Schedules the rank's next dispatch.
  void wake(int rank, SimTime time);
  void start_compute(int rank, SimTime now, const Op& op);
  void start_delay(int rank, SimTime now, const Op& op);
  void start_gpu(int rank, SimTime now, const Op& op);
  void start_copy(int rank, SimTime now, const Op& op);
  void start_send(int rank, SimTime now, const Op& op);
  void start_recv(int rank, SimTime now, const Op& op);
  void start_isend(int rank, SimTime now, const Op& op);
  void start_irecv(int rank, SimTime now, const Op& op);
  void start_wait_all(int rank, SimTime now);

  /// True when (src, dst) crosses nodes on a real network — the pair
  /// communicates through timestamped protocol messages instead of the
  /// instant path.
  bool use_protocol(int src_rank, int dst_rank) const;

  /// Instant-path transfer (same node, or ideal network): applies no NIC
  /// state, records the traffic, returns the completion time.
  SimTime timed_transfer(int send_rank, int recv_rank, SimTime earliest,
                         Bytes bytes, int tag);

  /// Marks one of `rank`'s outstanding requests resolved with the given
  /// completion time; wakes the rank if it was parked in kWaitAll.
  void resolve_request(int rank, SimTime completion);

  /// Instant-path matched rendezvous; wakes both ranks.
  void complete_rendezvous(int send_rank, SimTime send_ready, int recv_rank,
                           SimTime recv_ready, Bytes bytes, int tag);
  /// Instant-path eager send; returns its arrival time at the receiver.
  SimTime launch_eager(int src_rank, int dst_rank, SimTime now, Bytes bytes,
                       int tag);
  /// An eager payload for `key` reached its receiver at `arrival`
  /// (instant path, or a landed kArrival): completes a parked recv,
  /// resolves a posted irecv, or waits as an arrival for its receive.
  void deliver_eager(const MsgKey& key, SimTime arrival, Bytes bytes);

  /// Cross-node eager send: books the sender side (NIC-TX, stats, span)
  /// and emits the kArrival protocol message toward the receiver.
  void launch_eager_remote(int src_rank, int dst_rank, SimTime now,
                           Bytes bytes, int tag);
  /// Cross-node rendezvous transfer, computed receiver-side when the RTS
  /// meets its receive.  Books the receive side, advances the receiver
  /// NIC/port state, and emits the kCts message that unblocks the
  /// sender.  Returns the transfer end time.
  SimTime rendezvous_match(const PendingSend& ps, int recv_rank,
                           SimTime match_time, SimTime start_base, int tag);

  /// Buffers one committed dispatch (the determinism-digest stream).
  void commit_dispatch(int rank, SimTime now, std::uint8_t kind, Bytes bytes,
                       int peer = -1, int tag = 0);
  static constexpr std::uint8_t kRankDoneAudit = 0xFF;

  double compute_scale_for(int rank) const;
  SimTime scaled(SimTime t, int rank) const;
  void add_phase_compute(int rank, SimTime duration);
  void bin_busy(std::vector<double>& lane, SimTime start, SimTime end);
  void bin_value(std::vector<double>& lane, SimTime at, double value);
  /// Books a committed instant-path transfer into the stats and, when an
  /// observer is attached, buffers its message record and NIC spans.
  void account_transfer(int src_rank, int dst_rank, SimTime requested,
                        SimTime start, SimTime end, Bytes bytes, bool eager,
                        SimTime fabric_wait, int tag, SimTime latency);
  /// Buffers one resource-lane span (no-op when detached).
  void commit_span(Lane lane, int rank, int node, std::uint8_t kind,
                   SimTime start, SimTime end, SimTime queue_wait,
                   SimTime fabric_wait, Bytes bytes);
  void commit_message(const MessageRecord& message);
  /// Buffers a pending-depth delta; `park` deltas fire on_pending during
  /// the canonical replay, match deltas adjust silently.
  void commit_pending(int dsends, int drecvs, bool park);

  Placement placement_;
  const CostModel& cost_;
  EngineConfig config_;
  Scenario scenario_;

  bool protocol_ = false;  ///< Cross-node pairs use protocol messages.

  // --- simulation state (reset by every run()) ---
  std::vector<RankState> states_;
  std::vector<SimTime> gpu_free_;     ///< Per node.
  std::vector<SimTime> copy_free_;    ///< Per node.
  std::vector<SimTime> nic_tx_free_;  ///< Per node.
  std::vector<SimTime> nic_rx_free_;  ///< Per node.
  std::vector<SimTime> port_free_;    ///< Per node (switch output port).
  std::vector<std::uint32_t> proto_seq_;  ///< Per emitting rank.
  KeyedEventQueue queue_;
  std::vector<ProtoMsg> proto_pool_;
  std::vector<std::int32_t> proto_free_;  ///< Recycled proto_pool_ slots.
  MatchTable<PendingSend> pending_sends_;
  MatchTable<PendingRecv> pending_recvs_;
  MatchTable<int> pending_irecvs_;
  MatchTable<Arrival> arrivals_;
  RunStats stats_;

  // --- commit stream ---
  std::vector<CommitRec> commits_;  ///< Records of the open timestamp.
  SimTime ev_time_ = 0;             ///< (time, key) of the event being
  std::uint64_t ev_key_ = 0;        ///< processed; stamps its records.
  Fnv1a audit_;  ///< Running digest of the committed event stream.
  EngineObserver* observer_ = nullptr;  ///< Non-owning; nullptr = detached.
  int pending_send_depth_ = 0;  ///< Parked rendezvous senders.
  int pending_recv_depth_ = 0;  ///< Parked blocking recvs + posted irecvs.
  OpSource* source_ = nullptr;  ///< Active run's source (run() scope only).
};

}  // namespace soc::sim
