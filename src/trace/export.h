// Trace serialization.
//
// Programs ARE this simulator's traces (one op per event, one stream per
// rank), so persisting them gives the same workflow the paper had with
// Extrae: record once on the "real" cluster configuration, then re-run
// DIMEMAS-style what-if replays offline — possibly in another process,
// another machine, or a later session.
//
// Format (line-oriented, '#' comments allowed):
//   soctrace v1 ranks=<N>
//   rank <r>
//   cpu <instructions> <flops> <dram_bytes> <profile> <phase>
//   gpu <flops> <dram_bytes> <mem_model> <parallelism> <dp> <phase>
//   h2d <bytes> <mem_model> <phase>
//   d2h <bytes> <mem_model> <phase>
//   send <peer> <bytes> <tag> <phase>      (also recv, isend, irecv)
//   waitall <phase>
//   phase <id>
//   delay <seconds> <phase>
#pragma once

#include <string>
#include <vector>

#include "sim/op.h"

namespace soc::trace {

/// Serializes per-rank programs to the soctrace text format.
std::string export_programs(const std::vector<sim::Program>& programs);

/// Parses a soctrace document.  Malformed input throws soc::UsageError
/// ("soctrace line N: ..."): a bad header, a `ranks=` outside
/// [1, 32768), an unknown or malformed op, or a message peer that is not
/// another rank of the trace.
std::vector<sim::Program> import_programs(const std::string& text);

/// Reads and parses a soctrace file; a missing file throws
/// soc::UsageError.
std::vector<sim::Program> load_trace(const std::string& path);

}  // namespace soc::trace
