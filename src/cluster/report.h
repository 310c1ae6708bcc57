// Run-report emitter.
//
// Serializes one metered run — configuration, RunResult, energy, PMU
// counters, and (optionally) an obs::MetricsRegistry — as a canonical
// JSON document, schema "soccluster-run-report/v1".  Output is
// byte-identical across replays of the same configuration: integer
// fields are engine-deterministic and doubles render via
// shortest-round-trip std::to_chars.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/extended_roofline.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace soc::cluster {

/// Canonical spelling of a memory model in report documents; shared with
/// the sweep-report emitter so the two schemas can never disagree.
const char* mem_model_name(sim::MemModel mm);

/// The event-checksum rendering every report shares (obs/json.h).
using obs::checksum_hex;

/// Renders the report document (ends with a newline).  `metrics` may be
/// nullptr when no MetricsObserver was attached.  `scenario` may be
/// nullptr or disabled; a "scenario" block is emitted only when it is
/// enabled, so scenario-free reports stay byte-identical to the
/// pre-scenario schema.
std::string report_json(const ClusterConfig& config,
                        const RunOptions& options,
                        const std::string& workload,
                        const RunResult& result,
                        const obs::MetricsRegistry* metrics = nullptr,
                        const workloads::ScenarioConfig* scenario = nullptr);

/// Appends the "scenario" JSON block for an enabled scenario config.
/// Shared by the run-report and sweep-report emitters so the two schemas
/// render scenarios identically.
void write_scenario(obs::JsonWriter& w, const workloads::ScenarioConfig& s);

/// The energy-extended roofline model for one node configuration — the
/// same peak/bandwidth choices socbench's roofline table uses (`dp`
/// selects double-precision GPU peak) joined with the node's component
/// power model.
core::EnergyRoofline energy_roofline_model(const systems::NodeConfig& node,
                                           bool dp);

/// Renders a "soccluster-energy-roofline/v1" JSON document: one row per
/// run placing it on the GFLOPS/W roofline (achieved vs power-derived
/// ceiling at its measured OI/NI).  requests, results, and measurements
/// are parallel vectors; the document is byte-identical across thread
/// counts and build flavors.
std::string energy_roofline_json(
    const std::string& label, const std::vector<RunRequest>& requests,
    const std::vector<RunResult>& results,
    const std::vector<core::EnergyRooflineMeasurement>& measurements);

}  // namespace soc::cluster
