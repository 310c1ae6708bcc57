// MPI-style collectives lowered to point-to-point algorithms.
//
// Every collective expands into Send/Recv ops inside the ProgramSet, so a
// tree broadcast really occupies NICs stage by stage during replay.  The
// algorithms are the classical ones (binomial trees, recursive doubling,
// rings, pairwise all-to-all) that OpenMPI would pick at these message
// sizes and communicator widths.
#pragma once

#include "msg/program_set.h"

namespace soc::msg {

/// Binomial-tree broadcast of `bytes` from `root` to all ranks.
void broadcast(ProgramSet& ps, int root, Bytes bytes);

/// Binomial-tree broadcast restricted to `members` (a sub-communicator);
/// `root_index` indexes into members.  Used for hierarchical patterns:
/// broadcast among node leaders, then fan out locally.
void broadcast_group(ProgramSet& ps, const std::vector<int>& members,
                     std::size_t root_index, Bytes bytes);

/// Binomial-tree reduction of `bytes` to `root`.
void reduce(ProgramSet& ps, int root, Bytes bytes);

/// Allreduce: recursive doubling for power-of-two communicators, otherwise
/// reduce-to-0 followed by broadcast.
void allreduce(ProgramSet& ps, Bytes bytes);

/// Ring allreduce (reduce-scatter ring + allgather ring): 2(P−1) steps of
/// `bytes`/P messages — the bandwidth-optimal algorithm for large
/// payloads.  The collectives ablation bench compares it against
/// recursive doubling across message sizes.
void allreduce_ring(ProgramSet& ps, Bytes bytes);

/// All-to-all personalized exchange of `bytes_per_pair` between every rank
/// pair (pairwise XOR exchange when P is a power of two, cycle-ordered
/// ring shifts otherwise).
void alltoall(ProgramSet& ps, Bytes bytes_per_pair);

}  // namespace soc::msg
