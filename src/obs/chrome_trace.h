// Chrome trace-event exporter.
//
// Records the engine's span stream and serializes it in the Chrome
// trace-event JSON format (the `traceEvents` array of `X` duration
// events), loadable in Perfetto / chrome://tracing.  Mapping:
//
//   pid  = node id (one process row per node)
//   tid  = rank id for CPU spans; kLaneTidBase + lane for the node's
//          shared resource lanes (gpu, copy, nic-tx, nic-rx)
//   ts / dur = microseconds, rendered fixed-point from integer
//          nanoseconds so output is byte-identical across replays
//
// Metadata (`M`) events name every process and thread before the first
// duration event.  Matched inter-node messages additionally emit flow
// `s`/`f` pairs (one arrow per committed transfer, from the sender's
// rank row at the transfer start to the receiver's rank row at the
// transfer end), with ids assigned in commit order so the document stays
// byte-identical across replays.
#pragma once

#include <string>
#include <vector>

#include "obs/json.h"
#include "sim/engine.h"

namespace soc::obs {

/// tid offset for resource lanes, keeping them clear of real rank ids.
inline constexpr int kLaneTidBase = 1000000;

/// EngineObserver that buffers spans and renders the trace JSON.
/// Reusable across runs: each on_run_begin drops prior spans.
class ChromeTraceRecorder : public sim::EngineObserver {
 public:
  void on_run_begin(const sim::Placement& placement,
                    const sim::EngineConfig& config) override;
  void on_span(const sim::SpanRecord& span) override;
  void on_message(const sim::MessageRecord& message) override;

  std::size_t span_count() const { return spans_.size(); }
  std::size_t message_count() const { return messages_.size(); }

  /// Renders the complete trace document (ends with a newline).
  std::string json() const;

 private:
  sim::Placement placement_;
  std::vector<sim::SpanRecord> spans_;
  std::vector<sim::MessageRecord> messages_;
};

}  // namespace soc::obs
