// Tests for workloads/: registry, program generation validity for every
// benchmark (peers in range, matched messages — verified by executing
// through the engine), and structural properties per workload family.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/error.h"
#include "sim/engine.h"
#include "workloads/dnn_workloads.h"
#include "workloads/npb.h"
#include "workloads/scientific.h"
#include "workloads/workload.h"

namespace soc::workloads {
namespace {

// Fast uniform cost model so whole programs execute quickly.
class UnitCostModel : public sim::CostModel {
 public:
  SimTime cpu_compute_time(int, const sim::Op& op) const override {
    return static_cast<SimTime>(op.instructions / 1e6) + 1;
  }
  SimTime gpu_kernel_time(int, const sim::Op& op) const override {
    return static_cast<SimTime>(op.flops / 1e6) + 1;
  }
  SimTime copy_time(int, const sim::Op&) const override { return 1; }
  SimTime message_latency(int, int) const override { return 10; }
  SimTime message_transfer_time(int, int, Bytes bytes) const override {
    return bytes / 1000 + 1;
  }
  SimTime send_overhead(int) const override { return 1; }
  SimTime recv_overhead(int) const override { return 1; }
};

// Table I's GPGPU-accelerated workloads and the NPB subset of §III-A.
const char* const kTableOne[] = {"hpl",       "jacobi",    "cloverleaf",
                                 "tealeaf2d", "tealeaf3d", "alexnet",
                                 "googlenet"};
const char* const kNpb[] = {"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"};

BuildContext ctx_for(const Workload& w, int nodes) {
  BuildContext ctx;
  ctx.nodes = nodes;
  ctx.ranks = nodes;
  if (w.name() == "alexnet" || w.name() == "googlenet") ctx.ranks = 4 * nodes;
  if (!w.gpu_accelerated()) ctx.ranks = 2 * nodes;
  ctx.size_scale = 0.02;  // keep test programs small
  return ctx;
}

TEST(Registry, AllFifteenWorkloadsPresent) {
  const auto names = list();
  EXPECT_EQ(names.size(), 15u);
  const std::set<std::string> set(names.begin(), names.end());
  for (const char* expected :
       {"hpl", "jacobi", "cloverleaf", "tealeaf2d", "tealeaf3d", "alexnet",
        "googlenet", "bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}) {
    EXPECT_TRUE(set.count(expected)) << expected;
  }
}

TEST(Registry, MakeWorkloadRoundTrips) {
  for (const std::string& name : list()) {
    const auto w = make_workload(name);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), name);
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_workload("linpack9000"), Error);
}

TEST(Registry, GpuFlagsMatchTableOne) {
  for (const char* name : kTableOne) {
    EXPECT_TRUE(make_workload(name)->gpu_accelerated()) << name;
  }
  for (const char* name : kNpb) {
    EXPECT_FALSE(make_workload(name)->gpu_accelerated()) << name;
  }
}

TEST(Registry, ProfilesAreDistinctlyNamed) {
  std::set<std::string> names;
  for (const std::string& name : list()) {
    names.insert(make_workload(name)->cpu_profile().name);
  }
  // tealeaf2d/3d and alexnet/googlenet share profiles by design.
  EXPECT_GE(names.size(), 12u);
}

// Every workload's program must execute to completion on the engine
// (validates peers, tags, and deadlock-freedom) at several cluster sizes.
class WorkloadExecutionTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(WorkloadExecutionTest, ProgramsExecuteToCompletion) {
  const auto& [name, nodes] = GetParam();
  const auto w = make_workload(name);
  const BuildContext ctx = ctx_for(*w, nodes);
  const auto programs = w->build(ctx);
  ASSERT_EQ(static_cast<int>(programs.size()), ctx.ranks);

  UnitCostModel cost;
  sim::Engine engine(sim::Placement::block(ctx.ranks, ctx.nodes), cost);
  const sim::RunStats stats = engine.run(programs);
  EXPECT_GT(stats.makespan, 0);
  EXPECT_GT(stats.total_flops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadExecutionTest,
    ::testing::Combine(::testing::ValuesIn(list()),
                       ::testing::Values(1, 2, 4, 16)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "nodes";
    });

TEST(WorkloadBuild, DeterministicPrograms) {
  const auto w = make_workload("tealeaf3d");
  const BuildContext ctx = ctx_for(*w, 4);
  const auto a = w->build(ctx);
  const auto b = w->build(ctx);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size());
    for (std::size_t i = 0; i < a[r].size(); ++i) {
      EXPECT_EQ(a[r][i].kind, b[r][i].kind);
      EXPECT_EQ(a[r][i].bytes, b[r][i].bytes);
      EXPECT_DOUBLE_EQ(a[r][i].flops, b[r][i].flops);
    }
  }
}

TEST(WorkloadBuild, GpuWorkloadsEmitGpuOps) {
  for (const char* name : kTableOne) {
    const auto w = make_workload(name);
    const auto programs = w->build(ctx_for(*w, 2));
    bool has_gpu = false;
    for (const auto& prog : programs) {
      for (const auto& op : prog) {
        has_gpu |= op.kind == sim::OpKind::kGpuKernel;
      }
    }
    EXPECT_TRUE(has_gpu) << name;
  }
}

TEST(WorkloadBuild, NpbWorkloadsAreCpuOnly) {
  for (const char* name : kNpb) {
    const auto w = make_workload(name);
    const auto programs = w->build(ctx_for(*w, 2));
    for (const auto& prog : programs) {
      for (const auto& op : prog) {
        EXPECT_NE(op.kind, sim::OpKind::kGpuKernel) << name;
        EXPECT_NE(op.kind, sim::OpKind::kCopyH2D) << name;
      }
    }
  }
}

TEST(WorkloadBuild, DnnWorkloadsHaveNoInterNodeTraffic) {
  // alexnet/googlenet classify images independently (§III-B.2).
  for (const char* name : {"alexnet", "googlenet"}) {
    const auto w = make_workload(name);
    const BuildContext ctx = ctx_for(*w, 4);
    const auto programs = w->build(ctx);
    UnitCostModel cost;
    sim::Engine engine(sim::Placement::block(ctx.ranks, ctx.nodes), cost);
    const sim::RunStats stats = engine.run(programs);
    EXPECT_EQ(stats.total_net_bytes, 0) << name;
  }
}

TEST(WorkloadBuild, DnnUsesSinglePrecision) {
  const auto w = make_workload("alexnet");
  const auto programs = w->build(ctx_for(*w, 1));
  for (const auto& op : programs[0]) {
    if (op.kind == sim::OpKind::kGpuKernel) {
      EXPECT_FALSE(op.double_precision);
    }
  }
}

TEST(WorkloadBuild, ScientificUsesDoublePrecision) {
  const auto w = make_workload("tealeaf2d");
  const auto programs = w->build(ctx_for(*w, 2));
  for (const auto& op : programs[0]) {
    if (op.kind == sim::OpKind::kGpuKernel) {
      EXPECT_TRUE(op.double_precision);
    }
  }
}

TEST(WorkloadBuild, ZeroCopySkipsStagingCopies) {
  const auto w = make_workload("jacobi");
  BuildContext ctx = ctx_for(*w, 4);
  ctx.mem_model = sim::MemModel::kHostDevice;
  const auto with_copies = w->build(ctx);
  ctx.mem_model = sim::MemModel::kZeroCopy;
  const auto without = w->build(ctx);
  auto count_copies = [](const std::vector<sim::Program>& progs) {
    int n = 0;
    for (const auto& prog : progs) {
      for (const auto& op : prog) {
        if (op.kind == sim::OpKind::kCopyD2H ||
            op.kind == sim::OpKind::kCopyH2D) {
          ++n;
        }
      }
    }
    return n;
  };
  EXPECT_GT(count_copies(with_copies), 0);
  EXPECT_EQ(count_copies(without), 0);
}

TEST(WorkloadBuild, HplCpuOnlyModeHasNoGpuOps) {
  const HplWorkload hpl;
  BuildContext ctx;
  ctx.nodes = 2;
  ctx.ranks = 8;
  ctx.gpu_work_fraction = 0.0;
  ctx.size_scale = 0.02;
  const auto programs = hpl.build(ctx);
  for (const auto& prog : programs) {
    for (const auto& op : prog) {
      EXPECT_NE(op.kind, sim::OpKind::kGpuKernel);
    }
  }
}

TEST(WorkloadBuild, HplColocatedSplitsWork) {
  const HplWorkload hpl;
  BuildContext ctx;
  ctx.nodes = 2;
  ctx.ranks = 8;
  ctx.gpu_work_fraction = 1.0;
  ctx.size_scale = 0.02;
  const auto programs = hpl.build(ctx);
  // GPU ops only on node-leader ranks (0, 4); CPU update work elsewhere.
  for (int r = 0; r < 8; ++r) {
    bool has_gpu = false;
    for (const auto& op : programs[static_cast<std::size_t>(r)]) {
      has_gpu |= op.kind == sim::OpKind::kGpuKernel;
    }
    EXPECT_EQ(has_gpu, r % 4 == 0) << "rank " << r;
  }
}

TEST(WorkloadBuild, SizeScaleReducesWork) {
  const auto w = make_workload("jacobi");
  BuildContext small = ctx_for(*w, 2);
  BuildContext big = small;
  big.size_scale = 4.0 * small.size_scale;
  auto flops_of = [&](const BuildContext& c) {
    double total = 0.0;
    for (const auto& prog : w->build(c)) {
      for (const auto& op : prog) total += op.flops;
    }
    return total;
  };
  EXPECT_GT(flops_of(big), 2.0 * flops_of(small));
}

TEST(WorkloadBuild, ImbalanceFactorBoundsAndDeterminism) {
  for (int r = 0; r < 64; ++r) {
    const double f = imbalance_factor("cg", r, 0.25);
    EXPECT_GE(f, 0.75);
    EXPECT_LE(f, 1.25);
    EXPECT_DOUBLE_EQ(f, imbalance_factor("cg", r, 0.25));
  }
  EXPECT_DOUBLE_EQ(imbalance_factor("anything", 5, 0.0), 1.0);
  EXPECT_THROW(imbalance_factor("x", 0, 1.5), Error);
}

TEST(WorkloadBuild, ImbalancedWorkloadsVaryAcrossRanks) {
  // cg's per-rank compute must actually differ (LB < 1 at measurement).
  std::set<double> factors;
  for (int r = 0; r < 16; ++r) factors.insert(imbalance_factor("cg", r, 0.28));
  EXPECT_GT(factors.size(), 8u);
}

TEST(NpbSpecs, PatternsMatchBenchmarks) {
  EXPECT_EQ(npb_ft_spec().pattern, NpbPattern::kAllToAll);
  EXPECT_EQ(npb_is_spec().pattern, NpbPattern::kAllToAll);
  EXPECT_EQ(npb_lu_spec().pattern, NpbPattern::kPipeline);
  EXPECT_EQ(npb_mg_spec().pattern, NpbPattern::kMultigrid);
  EXPECT_EQ(npb_ep_spec().pattern, NpbPattern::kNone);
  EXPECT_EQ(npb_cg_spec().pattern, NpbPattern::kSparse);
  EXPECT_EQ(npb_bt_spec().pattern, NpbPattern::kNeighbors);
  EXPECT_EQ(npb_sp_spec().pattern, NpbPattern::kNeighbors);
}

// bt, sp, cg and mg exchange with XOR partners, which exist for every rank
// only at power-of-two counts: any other count fails before generating an
// op, naming the workload, the count and the nearest valid counts.  The
// all-to-all, pipeline and reduction-only codes accept any count and
// still move data between nodes.
TEST(NpbSpecs, XorPartnerCodesRejectNonPowerOfTwoRanks) {
  BuildContext ctx;
  ctx.nodes = 3;
  ctx.ranks = 6;
  ctx.size_scale = 0.02;
  for (const char* name : {"bt", "cg", "mg", "sp"}) {
    const auto w = make_workload(name);
    try {
      (void)w->build(ctx);
      ADD_FAILURE() << name << " built 6 ranks";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what, std::string(name) +
                          " needs a power-of-two rank count, got 6 (nearest "
                          "valid: 4 or 8)");
    }
  }
  UnitCostModel cost;
  for (const char* name : {"ep", "ft", "is", "lu"}) {
    const auto w = make_workload(name);
    const auto programs = w->build(ctx);
    sim::Engine engine(sim::Placement::block(ctx.ranks, ctx.nodes), cost);
    const sim::RunStats stats = engine.run(programs);
    EXPECT_GT(stats.total_net_bytes, 0) << name;
  }
}

TEST(NpbSpecs, ImbalanceLargestForCgAndLu) {
  // The paper's LB analysis: cg and lu are the load-balance-limited codes.
  const double cg = npb_cg_spec().imbalance;
  const double lu = npb_lu_spec().imbalance;
  for (const auto& spec : {npb_bt_spec(), npb_ep_spec(), npb_ft_spec(),
                           npb_is_spec(), npb_mg_spec(), npb_sp_spec()}) {
    EXPECT_LT(spec.imbalance, cg) << spec.tag;
    EXPECT_LT(spec.imbalance, lu) << spec.tag;
  }
}

TEST(WorkloadBuild, EpHasAlmostNoCommunication) {
  const auto w = make_workload("ep");
  const BuildContext ctx = ctx_for(*w, 4);
  const auto programs = w->build(ctx);
  UnitCostModel cost;
  sim::Engine engine(sim::Placement::block(ctx.ranks, ctx.nodes), cost);
  const sim::RunStats stats = engine.run(programs);
  // Only the terminal reduction moves data.
  EXPECT_LT(stats.total_net_bytes, 10 * kKiB);
}

TEST(WorkloadBuild, FtMovesTheMostData) {
  UnitCostModel cost;
  auto net_bytes = [&](const char* name) {
    const auto w = make_workload(name);
    const BuildContext ctx = ctx_for(*w, 4);
    sim::Engine engine(sim::Placement::block(ctx.ranks, ctx.nodes), cost);
    return engine.run(w->build(ctx)).total_net_bytes;
  };
  const Bytes ft = net_bytes("ft");
  EXPECT_GT(ft, net_bytes("bt"));
  EXPECT_GT(ft, net_bytes("cg"));
  EXPECT_GT(ft, net_bytes("mg"));
}

}  // namespace
}  // namespace soc::workloads
