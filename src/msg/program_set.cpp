#include "msg/program_set.h"

#include "common/error.h"

namespace soc::msg {

ProgramSet::ProgramSet(int ranks) : ranks_(ranks) {
  SOC_CHECK(ranks > 0, "need at least one rank");
  programs_.resize(static_cast<std::size_t>(ranks));
}

void ProgramSet::add(int rank, sim::Op op) {
  SOC_CHECK(rank >= 0 && rank < ranks_, "rank out of range");
  op.phase = phase_;
  programs_[static_cast<std::size_t>(rank)].push_back(op);
}

int ProgramSet::begin_phase() {
  ++phase_;
  for (int r = 0; r < ranks_; ++r) {
    programs_[static_cast<std::size_t>(r)].push_back(sim::phase_op(phase_));
  }
  return phase_;
}

int ProgramSet::next_tag() { return tag_++; }

void ProgramSet::send_recv(int src, int dst, Bytes bytes) {
  SOC_CHECK(src != dst, "self message");
  const int tag = next_tag();
  add(src, sim::send_op(dst, bytes, tag));
  add(dst, sim::recv_op(src, bytes, tag));
}

void ProgramSet::exchange(int rank_a, int rank_b, Bytes bytes) {
  SOC_CHECK(rank_a != rank_b, "self exchange");
  const int lo = rank_a < rank_b ? rank_a : rank_b;
  const int hi = rank_a < rank_b ? rank_b : rank_a;
  const int tag_fwd = next_tag();
  const int tag_bwd = next_tag();
  // lo: send then recv; hi: recv then send — rendezvous-safe.
  add(lo, sim::send_op(hi, bytes, tag_fwd));
  add(lo, sim::recv_op(hi, bytes, tag_bwd));
  add(hi, sim::recv_op(lo, bytes, tag_fwd));
  add(hi, sim::send_op(lo, bytes, tag_bwd));
}

void ProgramSet::exchange_async(int rank_a, int rank_b, Bytes bytes) {
  SOC_CHECK(rank_a != rank_b, "self exchange");
  const int tag_ab = next_tag();
  const int tag_ba = next_tag();
  add(rank_a, sim::irecv_op(rank_b, bytes, tag_ba));
  add(rank_a, sim::isend_op(rank_b, bytes, tag_ab));
  add(rank_b, sim::irecv_op(rank_a, bytes, tag_ab));
  add(rank_b, sim::isend_op(rank_a, bytes, tag_ba));
}

void ProgramSet::wait_all(int rank) { add(rank, sim::wait_all_op()); }

std::vector<sim::Program> ProgramSet::take() {
  std::vector<sim::Program> out = std::move(programs_);
  programs_.clear();
  programs_.resize(static_cast<std::size_t>(ranks_));
  return out;
}

void ProgramSet::take(int rank, sim::Program& out) {
  SOC_CHECK(rank >= 0 && rank < ranks_, "rank out of range");
  out.clear();
  out.swap(programs_[static_cast<std::size_t>(rank)]);
}

}  // namespace soc::msg
