// Process-wide allocation counter.
//
// perfbench's traced run reports allocations per event
// (sim.allocs_per_event), so the engine's allocation rate is a measured
// number, not a claim.
// The counter itself lives in soc_common; the operator new/delete
// replacements that feed it live in the separate soc_alloc_hooks link-in
// library (alloc_hooks.cpp) so ordinary binaries and sanitizer builds
// keep the toolchain's allocator.  Without the hooks linked in,
// allocation_count() stays 0.
#pragma once

#include <cstdint>

namespace soc {

/// Number of operator new invocations observed since process start
/// (0 unless soc_alloc_hooks is linked into the binary).
std::uint64_t allocation_count();

namespace detail {
/// Called by the alloc hooks; not for general use.
void count_allocation();
}  // namespace detail

}  // namespace soc
