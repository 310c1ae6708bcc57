// Concrete EngineObserver implementations.
//
// MetricsObserver turns the engine's committed event stream into a
// MetricsRegistry; ObserverList fans one engine hook out to several
// consumers (e.g. metrics + a Chrome trace in the same run).
#pragma once

#include <array>
#include <vector>

#include "obs/metrics.h"
#include "sim/engine.h"

namespace soc::obs {

/// Per-lane busy/blocked accumulator over the span stream.  Shared by
/// MetricsObserver (the util.* counters) and the critical-path profiler's
/// utilization block so both report the same integer-nanosecond totals.
struct LaneUsage {
  std::array<SimTime, sim::kLaneCount> busy{};     ///< Sum of span widths.
  std::array<SimTime, sim::kLaneCount> blocked{};  ///< Sum of queue waits.

  void clear();
  void add(const sim::SpanRecord& span);
  SimTime lane_busy(sim::Lane lane) const {
    return busy[static_cast<std::size_t>(lane)];
  }
  SimTime lane_blocked(sim::Lane lane) const {
    return blocked[static_cast<std::size_t>(lane)];
  }
  /// Idle time of a lane over one run: rows × makespan − busy, clamped at
  /// zero (eager transmit spans include their in-flight tail and can
  /// overlap).  The cpu lane has one row per rank; the shared lanes one
  /// per node.
  SimTime idle(sim::Lane lane, int ranks, int nodes, SimTime makespan) const;

  bool operator==(const LaneUsage&) const = default;
};

/// Stable metric-name spelling for a lane ("cpu", "gpu", "copy", "nic_tx",
/// "nic_rx") — lane_name() with '-' flattened to '_'.
const char* lane_metric_name(sim::Lane lane);

/// Populates a MetricsRegistry from the engine's event stream:
///
///   counters    ops.<kind> (committed dispatches per op kind),
///               msg.eager / msg.rendezvous (+ .bytes),
///               msg.inter_node / msg.intra_node,
///               phase.<p>.msg_bytes (per-phase message traffic),
///               util.<lane>.busy_ns / .blocked_ns / .idle_ns
///               (per-lane utilization, integer nanoseconds)
///   gauges      run.ranks, run.nodes, run.makespan_ns,
///               run.events_committed,
///               pending.sends.high_water / pending.recvs.high_water
///   histograms  wait.gpu / wait.copy / wait.nic_tx / wait.nic_rx /
///               wait.fabric (queue-wait ns), msg.bytes (message sizes)
///
/// Reusable across runs: each on_run_begin clears the registry.
class MetricsObserver : public sim::EngineObserver {
 public:
  void on_run_begin(const sim::Placement& placement,
                    const sim::EngineConfig& config) override;
  void on_dispatch(const sim::DispatchRecord& record) override;
  void on_span(const sim::SpanRecord& span) override;
  void on_message(const sim::MessageRecord& message) override;
  void on_pending(int pending_sends, int pending_recvs) override;
  void on_run_end(const sim::RunStats& stats) override;

  const MetricsRegistry& registry() const { return registry_; }
  MetricsRegistry& registry() { return registry_; }

 private:
  MetricsRegistry registry_;
  LaneUsage usage_;
  int ranks_ = 0;
  int nodes_ = 0;
};

/// Forwards every hook to each registered observer, in registration order.
class ObserverList : public sim::EngineObserver {
 public:
  /// Registers a (non-owning) observer; nullptr is ignored.
  void add(sim::EngineObserver* observer);
  bool empty() const { return observers_.empty(); }

  void on_run_begin(const sim::Placement& placement,
                    const sim::EngineConfig& config) override;
  void on_dispatch(const sim::DispatchRecord& record) override;
  void on_span(const sim::SpanRecord& span) override;
  void on_message(const sim::MessageRecord& message) override;
  void on_pending(int pending_sends, int pending_recvs) override;
  void on_run_end(const sim::RunStats& stats) override;

 private:
  std::vector<sim::EngineObserver*> observers_;
};

}  // namespace soc::obs
