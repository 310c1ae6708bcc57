#include "common/parallel.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "common/error.h"

namespace soc {

namespace {

// True while this thread runs parallel_for tasks: a helper thread for its
// whole life, the caller while it takes its share.  A parallel_for that
// finds it set runs inline, so fan-outs never nest.
// SOC_SHARED(thread_local) — each thread reads and writes only its own.
thread_local bool t_in_task = false;

/// Marks this thread as running tasks until the scope ends, then restores
/// what an enclosing scope set.
class TaskScope {
 public:
  TaskScope() : outer_(t_in_task) { t_in_task = true; }
  ~TaskScope() { t_in_task = outer_; }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  bool outer_;
};

/// CPUs this process may run on: its affinity mask, so a run under
/// `taskset -c 0` does not time-slice threads on one CPU.
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int cpus = CPU_COUNT(&set);
    if (cpus > 0) return static_cast<unsigned>(cpus);
  }
  return std::thread::hardware_concurrency();
}

}  // namespace

unsigned effective_threads(unsigned threads, std::size_t count) {
  if (count == 0) return 0;
  if (threads == 0) threads = usable_cpus();
  if (threads == 0) threads = 1;
  return static_cast<unsigned>(std::min<std::size_t>(threads, count));
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn,
                  unsigned threads) {
  SOC_CHECK(fn != nullptr, "parallel_for needs a body");
  if (count == 0) return;
  // Inside a task the enclosing fan-out already holds the threads.
  threads = t_in_task ? 1 : effective_threads(threads, count);

  // One slot per task, written only by the thread that ran it, so the
  // error rethrown is the lowest failing index's whatever the schedule.
  std::vector<std::exception_ptr> errors(count);
  const auto run = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  const auto rethrow_lowest = [&] {
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  };

  if (threads == 1) {
    const TaskScope scope;
    for (std::size_t i = 0; i < count; ++i) run(i);
    rethrow_lowest();
    return;
  }

  // SOC_SHARED(atomic) — the work cursor; task 0 is the caller's.
  std::atomic<std::size_t> next{1};
  const auto take_tasks = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      run(i);
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) {
    try {
      helpers.emplace_back([&] {
        const TaskScope scope;
        take_tasks();
      });
    } catch (const std::system_error&) {
      break;  // The system refused a thread: the caller takes its share.
    }
  }
  // The caller runs task 0 itself: a large pass on the thread that made
  // its inputs keeps its allocations in the caller's malloc arena
  // (DESIGN.md §10).
  {
    const TaskScope scope;
    run(0);
    take_tasks();
  }
  for (std::thread& t : helpers) t.join();
  rethrow_lowest();
}

}  // namespace soc
