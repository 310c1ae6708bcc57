#include "workloads/op_stream.h"

#include <utility>

#include "common/error.h"

namespace soc::workloads {

bool OpStream::next(int rank, SimTime now, sim::Op* op) {
  sim::Op pulled = get_next(rank, now);
  if (pulled.kind == sim::OpKind::kEnd) return false;
  *op = pulled;
  return true;
}

ProgramWalkStream::ProgramWalkStream(const Workload& workload,
                                     const BuildContext& ctx)
    : workload_(&workload), ctx_(ctx), ranks_(ctx.ranks) {
  validate(ctx_);
}

ProgramWalkStream::ProgramWalkStream(std::vector<sim::Program> programs)
    : built_(true),
      programs_(std::move(programs)),
      cursor_(programs_.size(), 0),
      ranks_(static_cast<int>(programs_.size())) {}

int ProgramWalkStream::ranks() const { return ranks_; }

void ProgramWalkStream::build() {
  programs_ = workload_->build(ctx_);
  SOC_CHECK(static_cast<int>(programs_.size()) == ranks_,
            "workload built a program count != ctx.ranks");
  cursor_.assign(programs_.size(), 0);
  built_ = true;
}

sim::Op ProgramWalkStream::get_next(int rank, SimTime /*now*/) {
  if (!built_) build();
  const std::size_t r = static_cast<std::size_t>(rank);
  SOC_CHECK(r < programs_.size(), "ProgramWalkStream: rank out of range");
  if (cursor_[r] >= programs_[r].size()) return sim::end_op();
  return programs_[r][cursor_[r]++];
}

}  // namespace soc::workloads
