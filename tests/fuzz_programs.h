// Random message-passing programs and a cost model for fuzzing the
// engine and the profiler (fuzz_engine_test, prof_test).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/cost_model.h"
#include "sim/op.h"

namespace soc::test {

/// Op costs from the op itself; 60 us cross-node latency.
class FuzzCost : public sim::CostModel {
 public:
  explicit FuzzCost(double bandwidth) : bandwidth_(bandwidth) {}
  SimTime cpu_compute_time(int, const sim::Op& op) const override {
    return static_cast<SimTime>(op.instructions) + 1;
  }
  SimTime gpu_kernel_time(int, const sim::Op& op) const override {
    return static_cast<SimTime>(op.flops) + 1;
  }
  SimTime copy_time(int, const sim::Op&) const override {
    return 5 * kMicrosecond;
  }
  SimTime message_latency(int s, int d) const override {
    return s == d ? 1 * kMicrosecond : 60 * kMicrosecond;
  }
  SimTime message_transfer_time(int, int, Bytes bytes) const override {
    return transfer_time(bytes, bandwidth_);
  }
  SimTime send_overhead(int) const override { return 2 * kMicrosecond; }
  SimTime recv_overhead(int) const override { return 2 * kMicrosecond; }

 private:
  double bandwidth_;
};

// A random well-formed SPMD program: blocking exchanges, non-blocking
// exchanges closed by a kWaitAll, and a three-tag pool, so one channel
// carries the same tag many times, in both protocols.  Each iteration
// runs a blocking stage (the lower rank sends first, so rendezvous is
// safe) and then a non-blocking stage in which every rank posts its
// isends and irecvs before one kWaitAll, so every endpoint is matched
// and no schedule can deadlock.
inline std::vector<sim::Program> mixed_programs(std::uint64_t seed, int ranks) {
  Rng rng(seed);
  std::vector<sim::Program> programs(static_cast<std::size_t>(ranks));
  const auto prog = [&](int r) -> sim::Program& {
    return programs[static_cast<std::size_t>(r)];
  };
  const auto pick_pair = [&](int* a, int* b) {
    *a = static_cast<int>(rng.next_below(static_cast<unsigned>(ranks)));
    *b = static_cast<int>(rng.next_below(static_cast<unsigned>(ranks)));
    return *a != *b;
  };
  const auto tag = [&] { return static_cast<int>(rng.next_below(3)); };
  // Straddles the 8 KiB default eager threshold.
  const auto size = [&] {
    return 64 + static_cast<Bytes>(rng.next_below(32 * kKiB));
  };
  const int iterations = 3 + static_cast<int>(rng.next_below(5));
  for (int it = 0; it < iterations; ++it) {
    for (int r = 0; r < ranks; ++r) {
      prog(r).push_back(sim::phase_op(it));
      prog(r).push_back(sim::cpu_op(
          1e3 + static_cast<double>(rng.next_below(100'000)), 10, 64, 0));
    }
    const int exchanges = static_cast<int>(rng.next_below(4));
    for (int e = 0; e < exchanges; ++e) {
      int a = 0;
      int b = 0;
      if (!pick_pair(&a, &b)) continue;
      const int lo = std::min(a, b);
      const int hi = std::max(a, b);
      const Bytes bytes = size();
      const int t = tag();
      prog(lo).push_back(sim::send_op(hi, bytes, t));
      prog(hi).push_back(sim::recv_op(lo, bytes, t));
    }
    std::vector<sim::Program> isends(static_cast<std::size_t>(ranks));
    std::vector<sim::Program> irecvs(static_cast<std::size_t>(ranks));
    const int posts = static_cast<int>(rng.next_below(6));
    for (int e = 0; e < posts; ++e) {
      int src = 0;
      int dst = 0;
      if (!pick_pair(&src, &dst)) continue;
      const Bytes bytes = size();
      const int t = tag();
      isends[static_cast<std::size_t>(src)].push_back(
          sim::isend_op(dst, bytes, t));
      irecvs[static_cast<std::size_t>(dst)].push_back(
          sim::irecv_op(src, bytes, t));
    }
    for (int r = 0; r < ranks; ++r) {
      const auto& out = isends[static_cast<std::size_t>(r)];
      const auto& in = irecvs[static_cast<std::size_t>(r)];
      if (out.empty() && in.empty()) continue;
      prog(r).insert(prog(r).end(), out.begin(), out.end());
      prog(r).insert(prog(r).end(), in.begin(), in.end());
      prog(r).push_back(sim::wait_all_op());
    }
  }
  return programs;
}

}  // namespace soc::test
