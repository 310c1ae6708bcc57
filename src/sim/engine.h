// The replay engine.
//
// Pulls one op stream per rank from an OpSource (or replays pre-built
// Programs through the ProgramSource adapter) against a CostModel,
// resolving resource contention (per-node GPU, copy engine, NIC) and
// blocking message semantics.
//
// Event ordering is deterministic and *partition-invariant*: events are
// totally ordered by (time, key) where the key is intrinsic to the event
// (protocol class, endpoint ranks, per-rank sequence) rather than derived
// from push order.  One run can therefore be sharded across
// EngineConfig::shards event queues — nodes partition into shards, each
// shard owns its ranks' state and pending tables, and shards synchronize
// with conservative (YAWNS/CMB-style) lookahead windows derived from the
// minimum cross-node message latency in the cost model.  Cross-node
// traffic travels as timestamped protocol messages (eager arrival,
// rendezvous RTS/CTS) whose timestamps are at least one latency in the
// future, so every event a shard can receive from another shard lands
// beyond the current window.  The committed event stream, the
// determinism digest, and every derived artifact are byte-identical at
// any shard count (and any thread count).  See DESIGN.md §16.
//
// Scenario knobs implement the DIMEMAS-style what-if replays of the
// paper's scalability methodology: `ideal_network` zeroes latency and
// transfer time while preserving all dependencies (isolates Ser), and
// `compute_scale` rescales each rank's compute durations (ideal load
// balance sets these so every rank does the average amount of work).
#pragma once

#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/match_table.h"
#include "common/ring_queue.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/op.h"
#include "sim/op_stream.h"
#include "sim/stats.h"
#include "sim/telemetry.h"

namespace soc::sim {

/// What-if replay configuration.
struct Scenario {
  bool ideal_network = false;       ///< Zero-latency, infinite-bandwidth net.
  std::vector<double> compute_scale;  ///< Per-rank multiplier (empty = 1.0).
};

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
/// configurations produce equal observations at any shard/thread count).
/// When no observer is attached the engine skips span/message/pending
/// buffering entirely — src/obs/ builds the metrics registry and
/// Chrome-trace exporter on top of this interface.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  /// A run is starting; `placement` maps ranks to nodes.  `config` carries
  /// the resolved lookahead window (EngineConfig::lookahead).
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
  /// Allocation hint for the event queue and pending-message tables
  /// (0 = derive from the rank count).  Purely a reservation: committed
  /// events and all derived artifacts are identical for any value.
  int queue_reserve = 0;
  /// Event-queue partitions for one run (clamped to the node count;
  /// collapses to 1 when the lookahead is zero — single node, ideal
  /// network, or a cost model with zero cross-node latency).  Committed
  /// events and all derived artifacts are byte-identical for any value.
  int shards = 1;
  /// Worker threads stepping the shards (0 = one per shard up to the
  /// hardware concurrency; values above the core count are honored so
  /// the pool is exercisable anywhere).  Never affects results.
  int threads = 0;
  /// Resolved conservative lookahead window in ns.  Output only: run()
  /// fills it before on_run_begin; the value set by callers is ignored.
  SimTime lookahead = 0;
  /// Engine self-instrumentation sink (non-owning; must outlive the
  /// run).  nullptr = detached: every instrumentation site reduces to
  /// one pointer test and the run allocates nothing extra.  Telemetry
  /// never feeds back into simulated state, so attaching it cannot
  /// change the committed event stream.  See sim/telemetry.h.
  EngineTelemetry* telemetry = nullptr;
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
  /// the run consumes it.  With shards > 1 and threads > 1,
  /// OpSource::next must tolerate concurrent calls for *distinct* ranks
  /// (all in-tree sources keep per-rank state element-disjoint, which
  /// suffices).
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
  // the entry is the parked RTS at the *receiver's* shard, carrying the
  // sender-side facts the transfer math needs.
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

  /// Cross-shard protocol messages.  Timestamps are always at least one
  /// cross-node latency past the emission time — the conservative-window
  /// safety invariant.
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

  /// One buffered observer/auditor record.  Shards append records in
  /// processing order; the coordinator stable-sorts by (time, key) —
  /// which groups them back into whole events in the canonical order —
  /// and replays them through the digest and the observer.
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

  /// Everything one event-queue partition owns.  During a window only
  /// the owning worker touches a shard; between the window barriers only
  /// the coordinator does (the barrier provides the happens-before), so
  /// none of it needs locks — which is exactly what SOC_SHARD_LOCAL
  /// documents and tools/soclint enforces.
  struct Shard {
    KeyedEventQueue queue;                             // SOC_SHARD_LOCAL
    std::vector<ProtoMsg> proto_pool;                  // SOC_SHARD_LOCAL
    std::vector<std::int32_t> proto_free;              // SOC_SHARD_LOCAL
    MatchTable<PendingSend> pending_sends;             // SOC_SHARD_LOCAL
    MatchTable<PendingRecv> pending_recvs;             // SOC_SHARD_LOCAL
    MatchTable<int> pending_irecvs;                    // SOC_SHARD_LOCAL
    MatchTable<Arrival> arrivals;                      // SOC_SHARD_LOCAL
    std::vector<CommitRec> commits;                    // SOC_SHARD_LOCAL
    std::vector<RingQueue<ProtoMsg>> outbox;           // SOC_SHARD_LOCAL
    SimTime ev_time = 0;                               // SOC_SHARD_LOCAL
    std::uint64_t ev_key = 0;                          // SOC_SHARD_LOCAL
    /// Telemetry counters (updated only when telemetry is attached).
    ShardCounters counters;                            // SOC_SHARD_LOCAL
  };

  // --- event keys: (class:1)(dst:15)(emitter:15)(seq:32).  Class 0 =
  //     protocol message (sorts before wakes at equal times: protos spawn
  //     same-time wakes, never the reverse), class 1 = rank wake-up.
  static std::uint64_t wake_key(int rank);
  std::uint64_t next_proto_key(int emitter_rank, int dst_rank);

  Shard& shard_of(int rank);

  void run_serial(SimTime horizon);
  void run_windowed(SimTime horizon);
  void step_shard(Shard& sh, SimTime window_end, SimTime horizon);
  void drain_outboxes();
  void enqueue_proto(Shard& dst, const ProtoMsg& p);
  /// Routes a protocol message: same shard goes straight into the queue,
  /// cross-shard rides the emitter's per-pair mailbox until the next
  /// window boundary.
  void send_proto(int emitter_rank, int target_rank, const ProtoMsg& p);
  /// Stable-sorts `recs` into the canonical (time, key) order and replays
  /// them through the audit digest, the pending-depth reconstruction, and
  /// the observer.  Clears the buffer (keeping capacity).
  void replay_commits(std::vector<CommitRec>& recs);

  void process_event(Shard& sh, const KeyedEvent& e);
  void process_arrival(const ProtoMsg& p, SimTime now);
  void process_rts(const ProtoMsg& p, SimTime now);
  void process_cts(const ProtoMsg& p, SimTime now);

  void execute_next(int rank, SimTime now);
  /// Finishes the rank's current op: bumps pc and drops the stream
  /// buffer so the next execute_next pulls a fresh op.  Every site that
  /// used to advance a rank's pc — including cross-rank wake paths —
  /// must go through here, or the stream cursor desynchronizes.
  void advance(int rank);
  /// Schedules the rank's next dispatch (its own shard's queue).
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
  /// instant same-shard fast path.
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
  /// Runs on the receiver's shard, which on the instant path is also the
  /// sender's.
  void deliver_eager(const MsgKey& key, SimTime arrival, Bytes bytes);

  /// Cross-node eager send: books the sender side (NIC-TX, stats, span)
  /// and emits the kArrival protocol message toward the receiver's shard.
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
  void commit_pending(int rank, int dsends, int drecvs, bool park);

  /// Minimum cost-model latency over all ordered cross-node pairs — the
  /// conservative lookahead (every protocol timestamp is at least this
  /// far in the future).
  SimTime min_cross_node_latency() const;

  // --- self-telemetry plumbing (all no-ops when tel_ is null) ---
  /// Monotonic wall-clock nanoseconds since run() started.
  std::uint64_t tel_now_ns() const;
  /// Appends a wall-clock span to `out`, honoring the per-lane cap;
  /// overflow increments `*dropped` instead of growing the vector.
  void tel_span(std::vector<EngineSpan>& out, std::uint64_t* dropped,
                EngineSpan::Kind kind, int lane, std::uint64_t window,
                std::uint64_t begin_ns, std::uint64_t end_ns) const;
  /// Folds per-shard counters, per-worker scratch, and span lanes into
  /// the attached sink at the end of run().
  void tel_finalize();

  Placement placement_;
  const CostModel& cost_;
  EngineConfig config_;
  Scenario scenario_;

  // --- run partitioning: computed once per run(), read-only during
  //     windows ---
  bool protocol_ = false;       ///< Cross-node pairs use protocol messages.
  int nshards_ = 1;
  int nthreads_ = 1;
  SimTime lookahead_ = 0;
  std::vector<int> shard_of_node_;
  std::vector<int> shard_of_rank_;

  // --- simulation state, partitioned by rank/node: element r (or node n)
  //     belongs to that rank's/node's shard and is touched only by the
  //     owning worker between barriers ---
  std::vector<RankState> states_;     // SOC_SHARD_LOCAL(rank partition)
  std::vector<SimTime> gpu_free_;     // SOC_SHARD_LOCAL(node partition)
  std::vector<SimTime> copy_free_;    // SOC_SHARD_LOCAL(node partition)
  std::vector<SimTime> nic_tx_free_;  // SOC_SHARD_LOCAL(node partition)
  std::vector<SimTime> nic_rx_free_;  // SOC_SHARD_LOCAL(node partition)
  std::vector<SimTime> port_free_;    // SOC_SHARD_LOCAL(node partition)
  std::vector<std::uint32_t> proto_seq_;  // SOC_SHARD_LOCAL(rank partition)
  std::vector<Shard> shards_;

  // RunStats: the per-rank / per-node vectors inside are partitioned like
  // the state above (each element written only by its owning shard); the
  // scalar aggregates are coordinator-only.
  RunStats stats_;                    // SOC_SHARD_LOCAL(rank/node partition)

  // --- self-telemetry (attached for one run; null = detached).  The
  //     worker-indexed scratch is written by each pool worker during a
  //     window and read by the coordinator between barriers, exactly the
  //     shard-state discipline (the window barriers order the accesses).
  EngineTelemetry* tel_ = nullptr;
  std::uint64_t tel_t0_ns_ = 0;  ///< run() start on the monotonic clock.
  std::vector<std::uint64_t> tel_window_busy_;   // SOC_SHARD_LOCAL(worker slot)
  std::vector<std::vector<EngineSpan>> tel_worker_spans_;  // SOC_SHARD_LOCAL(worker slot)
  std::vector<std::uint64_t> tel_worker_barrier_;  // SOC_SHARD_LOCAL(worker slot)
  std::vector<std::uint64_t> tel_worker_drops_;    // SOC_SHARD_LOCAL(worker slot)
  std::vector<EngineSpan> tel_coord_spans_;  ///< Coordinator lane spans.

  // --- coordinator state: caller thread only, between barriers ---
  Fnv1a audit_;  ///< Running digest of the committed event stream.
  std::vector<CommitRec> merged_;  ///< Window-merge scratch.
  EngineObserver* observer_ = nullptr;  ///< Non-owning; nullptr = detached.
  int pending_send_depth_ = 0;  ///< Parked rendezvous senders.
  int pending_recv_depth_ = 0;  ///< Parked blocking recvs + posted irecvs.
  OpSource* source_ = nullptr;  ///< Active run's source (run() scope only).
};

}  // namespace soc::sim
