#include "workloads/dnn_workloads.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "msg/program_set.h"
#include "workloads/kernels/dnn.h"
#include "workloads/profiles.h"

namespace soc::workloads {

DnnWorkload::DnnWorkload(Network network, int total_images)
    : network_(network), total_images_(total_images) {
  SOC_CHECK(total_images_ >= 1, "need at least one image");
}

arch::WorkloadProfile DnnWorkload::cpu_profile() const {
  return profiles::dnn_decode();
}

double DnnWorkload::flops_per_image() const {
  const auto layers = network_ == Network::kAlexNet
                          ? kernels::alexnet_layers()
                          : kernels::googlenet_layers();
  return kernels::network_flops(layers);
}

std::unique_ptr<WorkloadCursor> DnnWorkload::cursor(
    const BuildContext& ctx) const {
  validate(ctx);
  const int ranks = ctx.ranks;
  const auto layers = network_ == Network::kAlexNet
                          ? kernels::alexnet_layers()
                          : kernels::googlenet_layers();

  const int images =
      std::max(1, static_cast<int>(total_images_ * ctx.size_scale));

  // 227×227×3 float input tensor staged to the device per image.
  const Bytes input_bytes = 227 * 227 * 3 * 4;
  // JPEG decode + resize + mean-subtract: ~1.4e7 instructions per image
  // (≈12 ms on a Cortex-A57, ≈5 ms on a Xeon core — the published
  // balance).  GoogLeNet adds a second preprocessing pass.
  const double decode_instructions =
      network_ == Network::kAlexNet ? 1.4e7 : 1.8e7;
  // The distribution scripts feed Caffe in small batches: the fully-
  // connected layers' weight traffic amortizes over the batch (batch-1
  // inference would be weight-bandwidth-bound on the SoC).
  const int batch = 16;

  const int per_rank = (images + ranks - 1) / ranks;
  // One batch per step for every rank with images left.  The ranks never
  // communicate, so only each rank's own op order matters: its batches in
  // the order it classifies them.
  // SOC_SHARED(single-thread): the loop state belongs to this cursor.
  return make_cursor([=, done = 0](msg::ProgramSet& ps) mutable {
    // Rank 0 holds the most images (per_rank of them).
    if (done >= per_rank) return false;
    for (int r = 0; r < ranks; ++r) {
      const int mine = std::min(per_rank, images - r * per_rank);
      if (mine <= 0) break;
      if (done >= mine) continue;
      const int b = std::min(batch, mine - done);
      for (int i = 0; i < b; ++i) {
        ps.add(r, sim::cpu_op(decode_instructions, 2.0e6,
                              /*dram_bytes=*/600 * kKB, /*profile=*/0));
      }
      ps.add(r, sim::copy_h2d_op(input_bytes * b, ctx.mem_model));
      for (const kernels::LayerSpec& layer : layers) {
        // Activations scale with the batch; weights stream once.
        const double act_bytes = (layer.bytes - layer.weight_bytes) * b;
        ps.add(r, sim::gpu_op(layer.flops * b,
                              static_cast<Bytes>(act_bytes +
                                                 layer.weight_bytes),
                              ctx.mem_model, ps.phase(),
                              layer.parallelism * b,
                              /*double_precision=*/false));
      }
      ps.add(r, sim::copy_d2h_op(1000 * 4 * b, ctx.mem_model));  // logits
      ps.add(r, sim::cpu_op(2.0e5 * b, 2.0e4 * b, 8 * kKiB,
                            /*profile=*/0));  // argmax
    }
    done += batch;
    return true;
  });
}

}  // namespace soc::workloads
