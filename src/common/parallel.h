// Host-side parallelism for the benchmark harness.
//
// Each simulator run is single-threaded and deterministic; independent
// runs (different cluster sizes, NICs, workloads) share no mutable state,
// so the sweep benches fan them out across host cores, and one analysis
// runs its independent whole passes (the two ideal Eq. 4 replays) side by
// side.  CP.4 of the Core Guidelines: think in terms of tasks —
// parallel_for takes an index range and a task body, and joins before
// returning.  DESIGN.md §10 has the rules.
#pragma once

#include <cstddef>
#include <functional>

namespace soc {

/// Threads a top-level parallel_for(count, fn, threads) will actually
/// use: resolves 0 to the CPUs this process may run on (its affinity
/// mask; the hardware concurrency if that cannot be read; at least 1) and
/// never exceeds `count`.  Exposed so callers (the sweep runner's
/// summary, tests) can report the effective fan-out without duplicating
/// the policy.
unsigned effective_threads(unsigned threads, std::size_t count);

/// Runs fn(i) for i in [0, count) across up to `threads` host threads
/// (0 = every CPU this process may use) and blocks until every task
/// finished.  The calling thread runs task 0, then takes tasks alongside
/// the helper threads.  A call made from inside a task of another
/// parallel_for runs its tasks inline, in index order, so fan-outs never
/// nest.  Every task runs even if others throw; the exception of the
/// lowest failing index is rethrown after the join.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  unsigned threads = 0);

}  // namespace soc
