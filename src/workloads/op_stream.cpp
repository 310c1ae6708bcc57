#include "workloads/op_stream.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace soc::workloads {

CursorStream::CursorStream(std::unique_ptr<WorkloadCursor> cursor, int ranks)
    : cursor_(std::move(cursor)),
      pending_(ranks),
      ready_(static_cast<std::size_t>(ranks)),
      next_(static_cast<std::size_t>(ranks), 0) {
  SOC_CHECK(cursor_ != nullptr, "CursorStream: null cursor");
}

int CursorStream::ranks() const { return pending_.ranks(); }

std::size_t CursorStream::pending_ops() const {
  std::size_t ops = 0;
  for (const sim::Program& p : pending_.programs()) ops += p.size();
  return ops;
}

bool CursorStream::next(int rank, SimTime /*now*/, sim::Op* op) {
  SOC_CHECK(rank >= 0 && rank < ranks(), "CursorStream: rank out of range");
  const std::size_t r = static_cast<std::size_t>(rank);
  sim::Program& ready = ready_[r];
  if (next_[r] == ready.size()) {
    held_ -= ready.size();
    while (!ended_ && pending_.programs()[r].empty()) {
      const std::size_t before = pending_ops();
      if (!cursor_->step(pending_)) {
        ended_ = true;
        break;
      }
      held_ += pending_ops() - before;
      high_water_ = std::max(high_water_, held_);
    }
    pending_.take(rank, ready);
    next_[r] = 0;
    if (ready.empty()) {
      // End of the rank's stream: free both of its buffers (take() swaps
      // them between `ready` and the shared set), so a drained stream
      // holds nothing while its owner keeps it, as the Eq. 4 analysis
      // keeps the measured run's stream through the ideal replays.
      ready = sim::Program();
      pending_.take(rank, ready);
      ready = sim::Program();
      return false;
    }
  }
  *op = ready[next_[r]++];
  return true;
}

ProgramWalkStream::ProgramWalkStream(std::vector<sim::Program> programs)
    : programs_(std::move(programs)), walk_(programs_) {}

int ProgramWalkStream::ranks() const { return walk_.ranks(); }

bool ProgramWalkStream::next(int rank, SimTime now, sim::Op* op) {
  return walk_.next(rank, now, op);
}

}  // namespace soc::workloads
