// §III-A network characterization: iperf-style throughput and ping-pong
// latency of the two NICs, measured through the replay engine (so the
// numbers include NIC serialization and the messaging protocol).
//
// Paper reference points: the on-board 1GbE sustains ~0.94 Gb/s; the PCIe
// 10GbE card reaches only ~3.3 Gb/s on the TX1 (CPU/PCIe limited), and
// latency improves roughly 4x.
#include <cstdio>

#include "bench_common.h"
#include "common/table.h"
#include "net/microbench.h"
#include "net/network.h"

int main(int argc, char** argv) {
  using namespace soc;
  bench::reject_arguments(argc, argv);
  TextTable table({"NIC", "iperf throughput (Gb/s)", "ping-pong RTT (ms)",
                   "one-way latency (us)"});

  for (const net::NicConfig& nic :
       {net::gigabit_nic(), net::ten_gigabit_nic(),
        net::server_ten_gigabit_nic()}) {
    const net::NetworkModel network(nic, net::SwitchConfig{}, 7.0e9);
    const auto tput = net::measure_throughput(network);
    const auto lat = net::measure_latency(network);
    table.add_row({nic.name, TextTable::num(tput.gbit_per_second, 2),
                   TextTable::num(lat.round_trip_ms, 3),
                   TextTable::num(lat.one_way_us, 1)});
  }
  std::printf("Network microbenchmarks (two simulated nodes)\n\n%s",
              table.str().c_str());
  return 0;
}
