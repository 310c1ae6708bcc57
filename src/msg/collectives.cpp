#include "msg/collectives.h"

#include <bit>
#include <numeric>
#include <vector>

#include "common/error.h"

namespace soc::msg {

namespace {

bool is_pow2(int n) {
  return n > 0 && std::has_single_bit(static_cast<unsigned>(n));
}

int absolute(int rel, int root, int p) { return (rel + root) % p; }

// One ring shift: every rank sends `bytes` to its right neighbour and
// receives from its left.  With an even communicator, even ranks send
// while odd ranks receive, then roles flip — all transfers of a half-step
// proceed in parallel (blocking sends would otherwise serialize the whole
// ring).  Odd communicators fall back to rank-0-receives-first unwinding.
void ring_shift(ProgramSet& ps, Bytes bytes) {
  const int p = ps.ranks();
  std::vector<int> tags(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) tags[static_cast<std::size_t>(r)] = ps.next_tag();
  for (int r = 0; r < p; ++r) {
    const int right = (r + 1) % p;
    const int left = (r - 1 + p) % p;
    const int send_tag = tags[static_cast<std::size_t>(r)];
    const int recv_tag = tags[static_cast<std::size_t>(left)];
    const bool send_first = p % 2 == 0 ? r % 2 == 0 : r != 0;
    if (send_first) {
      ps.add(r, sim::send_op(right, bytes, send_tag));
      ps.add(r, sim::recv_op(left, bytes, recv_tag));
    } else {
      ps.add(r, sim::recv_op(left, bytes, recv_tag));
      ps.add(r, sim::send_op(right, bytes, send_tag));
    }
  }
}

}  // namespace

void broadcast(ProgramSet& ps, int root, Bytes bytes) {
  const int p = ps.ranks();
  SOC_CHECK(root >= 0 && root < p, "broadcast root out of range");
  if (p == 1) return;
  // Binomial tree over relative ranks: in round k, every holder r < 2^k
  // forwards to r + 2^k.
  for (int mask = 1; mask < p; mask <<= 1) {
    for (int r = 0; r < mask && r + mask < p; ++r) {
      ps.send_recv(absolute(r, root, p), absolute(r + mask, root, p), bytes);
    }
  }
}

void broadcast_group(ProgramSet& ps, const std::vector<int>& members,
                     std::size_t root_index, Bytes bytes) {
  const int p = static_cast<int>(members.size());
  SOC_CHECK(root_index < members.size(), "group root out of range");
  if (p <= 1) return;
  for (int mask = 1; mask < p; mask <<= 1) {
    for (int r = 0; r < mask && r + mask < p; ++r) {
      const int src = members[static_cast<std::size_t>(
          absolute(r, static_cast<int>(root_index), p))];
      const int dst = members[static_cast<std::size_t>(
          absolute(r + mask, static_cast<int>(root_index), p))];
      ps.send_recv(src, dst, bytes);
    }
  }
}

void reduce(ProgramSet& ps, int root, Bytes bytes) {
  const int p = ps.ranks();
  SOC_CHECK(root >= 0 && root < p, "reduce root out of range");
  if (p == 1) return;
  // Mirror of the broadcast tree: largest mask first, children send up.
  int top = 1;
  while (top < p) top <<= 1;
  for (int mask = top >> 1; mask >= 1; mask >>= 1) {
    for (int r = 0; r < mask && r + mask < p; ++r) {
      ps.send_recv(absolute(r + mask, root, p), absolute(r, root, p), bytes);
    }
  }
}

void allreduce(ProgramSet& ps, Bytes bytes) {
  const int p = ps.ranks();
  if (p == 1) return;
  if (is_pow2(p)) {
    // Recursive doubling: log2(P) symmetric exchanges.
    for (int mask = 1; mask < p; mask <<= 1) {
      for (int r = 0; r < p; ++r) {
        const int partner = r ^ mask;
        if (r < partner) ps.exchange(r, partner, bytes);
      }
    }
    return;
  }
  reduce(ps, 0, bytes);
  broadcast(ps, 0, bytes);
}

void allreduce_ring(ProgramSet& ps, Bytes bytes) {
  const int p = ps.ranks();
  if (p == 1) return;
  const Bytes chunk = std::max<Bytes>(bytes / p, 1);
  // Reduce-scatter ring then allgather ring: 2(P−1) pipelined steps.
  for (int step = 0; step < 2 * (p - 1); ++step) {
    ring_shift(ps, chunk);
  }
}

void alltoall(ProgramSet& ps, Bytes bytes_per_pair) {
  const int p = ps.ranks();
  if (p == 1) return;
  if (is_pow2(p)) {
    // Pairwise exchange: step s pairs r with r^s; symmetric and safe.
    for (int step = 1; step < p; ++step) {
      for (int r = 0; r < p; ++r) {
        const int partner = r ^ step;
        if (r < partner) ps.exchange(r, partner, bytes_per_pair);
      }
    }
    return;
  }
  // Ring shifts: step s sends to (r+s)%p, receives from (r-s+p)%p.  The
  // pairs of one step decompose into gcd(s,p) cycles; the minimum rank of
  // each cycle receives first so every cycle can unwind.
  for (int step = 1; step < p; ++step) {
    std::vector<int> tags(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) tags[static_cast<std::size_t>(r)] = ps.next_tag();
    const int cycles = std::gcd(step, p);
    std::vector<bool> recv_first(static_cast<std::size_t>(p), false);
    for (int c = 0; c < cycles; ++c) {
      // The cycle containing c; its minimum element is c itself, since
      // cycle members are c, c+step, c+2*step, ... (mod p).
      recv_first[static_cast<std::size_t>(c)] = true;
    }
    for (int r = 0; r < p; ++r) {
      const int dst = (r + step) % p;
      const int src = (r - step + p) % p;
      const int send_tag = tags[static_cast<std::size_t>(r)];
      const int recv_tag = tags[static_cast<std::size_t>(src)];
      if (recv_first[static_cast<std::size_t>(r)]) {
        ps.add(r, sim::recv_op(src, bytes_per_pair, recv_tag));
        ps.add(r, sim::send_op(dst, bytes_per_pair, send_tag));
      } else {
        ps.add(r, sim::send_op(dst, bytes_per_pair, send_tag));
        ps.add(r, sim::recv_op(src, bytes_per_pair, recv_tag));
      }
    }
  }
}

}  // namespace soc::msg
