// ASCII timeline rendering (a PARAVER-flavoured view of a run).
//
// Renders the engine's per-node busy-time lanes as utilization strips —
// one row per (node, component), one character per time bucket — so a
// terminal user can see where the GPUs idle, when the NICs saturate, and
// how phases line up, without leaving the CLI.
#pragma once

#include <string>

#include "sim/stats.h"

namespace soc::trace {

struct TimelineOptions {
  int width = 72;        ///< Characters per strip.
  int max_nodes = 8;     ///< Rows beyond this are summarized.
  /// Core count per node (normalizes the CPU lane to [0,1]).
  int cores_per_node = 4;
};

/// Renders utilization strips.  Glyphs: ' ' <5%, '.' <25%, '-' <50%,
/// '=' <75%, '#' <95%, '@' >=95% of the component's capacity.
std::string render_timeline(const sim::RunStats& stats,
                            const TimelineOptions& options = {});

}  // namespace soc::trace
