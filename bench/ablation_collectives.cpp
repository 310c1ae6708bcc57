// Ablation (DESIGN.md §5.5): allreduce algorithm choice across message
// sizes on the simulated 16-node TX1 cluster — recursive doubling
// (latency-optimal) vs the ring (bandwidth-optimal) vs reduce+broadcast.
// Because collectives lower to p2p ops, every algorithm pays real NIC
// serialization in the engine.
#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "common/table.h"
#include "msg/collectives.h"
#include "msg/program_set.h"
#include "net/network.h"
#include "sim/engine.h"

namespace {

using namespace soc;

class NetCost : public sim::CostModel {
 public:
  explicit NetCost(const net::NetworkModel& n) : net_(n) {}
  SimTime cpu_compute_time(int, const sim::Op&) const override { return 0; }
  SimTime gpu_kernel_time(int, const sim::Op&) const override { return 0; }
  SimTime copy_time(int, const sim::Op&) const override { return 0; }
  SimTime message_latency(int s, int d) const override {
    return net_.latency(s, d);
  }
  SimTime message_transfer_time(int s, int d, Bytes b) const override {
    return net_.transfer_time(s, d, b);
  }
  SimTime send_overhead(int) const override { return 2 * kMicrosecond; }
  SimTime recv_overhead(int) const override { return 2 * kMicrosecond; }

 private:
  const net::NetworkModel& net_;
};

double run_algorithm(const std::function<void(msg::ProgramSet&)>& emit,
                     int ranks, const net::NetworkModel& network) {
  msg::ProgramSet ps(ranks);
  emit(ps);
  NetCost cost(network);
  sim::Engine engine(sim::Placement::block(ranks, ranks), cost);
  return engine.run(ps.programs()).seconds() * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  bench::reject_arguments(argc, argv);
  const net::NetworkModel network(net::ten_gigabit_nic(), net::SwitchConfig{},
                                  7e9);
  const int p = 16;
  TextTable table({"message size", "recursive doubling (ms)", "ring (ms)",
                   "reduce+bcast (ms)"});
  for (Bytes size : {static_cast<Bytes>(64), 8 * kKiB, 256 * kKiB, 4 * kMiB,
                     64 * kMiB}) {
    table.add_row(
        {TextTable::eng(static_cast<double>(size)) + " B",
         TextTable::num(run_algorithm([&](msg::ProgramSet& ps) {
                          msg::allreduce(ps, size);
                        }, p, network), 3),
         TextTable::num(run_algorithm([&](msg::ProgramSet& ps) {
                          msg::allreduce_ring(ps, size);
                        }, p, network), 3),
         TextTable::num(run_algorithm([&](msg::ProgramSet& ps) {
                          msg::reduce(ps, 0, size);
                          msg::broadcast(ps, 0, size);
                        }, p, network), 3)});
  }
  std::printf(
      "Ablation: allreduce algorithms on 16 simulated TX1 nodes (10GbE)\n"
      "(recursive doubling wins small messages on latency; the ring wins\n"
      "large payloads on bandwidth — the standard crossover)\n\n%s",
      table.str().c_str());
  return 0;
}
