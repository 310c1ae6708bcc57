#include "workloads/workload.h"

#include "common/error.h"
#include "msg/program_set.h"
#include "workloads/op_stream.h"

namespace soc::workloads {

void validate(const BuildContext& ctx) {
  SOC_REQUIRE(ctx.ranks > 0, "BuildContext.ranks must be > 0");
  SOC_REQUIRE(ctx.nodes > 0, "BuildContext.nodes must be > 0");
  SOC_REQUIRE(ctx.ranks % ctx.nodes == 0,
              "BuildContext.ranks must be a multiple of BuildContext.nodes");
  SOC_REQUIRE(ctx.gpu_work_fraction >= 0.0 && ctx.gpu_work_fraction <= 1.0,
              "BuildContext.gpu_work_fraction must be within [0, 1]");
  SOC_REQUIRE(ctx.size_scale > 0.0, "BuildContext.size_scale must be > 0");
}

std::vector<sim::Program> Workload::build(const BuildContext& ctx) const {
  const std::unique_ptr<WorkloadCursor> steps = cursor(ctx);
  msg::ProgramSet ps(ctx.ranks);
  while (steps->step(ps)) {
  }
  return ps.take();
}

std::unique_ptr<sim::OpSource> Workload::stream(
    const BuildContext& ctx) const {
  return std::make_unique<CursorStream>(cursor(ctx), ctx.ranks);
}

}  // namespace soc::workloads
