// Host-side parallelism for the benchmark harness.
//
// Each simulator run is single-threaded and deterministic; independent
// runs (different cluster sizes, NICs, workloads) share no mutable state,
// so the sweep benches fan them out across host cores.  CP.4 of the Core
// Guidelines: think in terms of tasks — parallel_for takes an index range
// and a task body, and joins before returning.
#pragma once

#include <cstddef>
#include <functional>

namespace soc {

/// Threads parallel_for(count, fn, threads) will actually use: resolves
/// 0 to the hardware concurrency (at least 1) and never exceeds `count`.
/// Exposed so callers (the sweep runner's summary, tests) can report the
/// effective fan-out without duplicating the policy.
unsigned effective_threads(unsigned threads, std::size_t count);

/// Runs fn(i) for i in [0, count) across up to `threads` host threads
/// (0 = hardware concurrency).  Blocks until every task finished.  If any
/// task throws, one of the exceptions is rethrown after the join.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  unsigned threads = 0);

}  // namespace soc
