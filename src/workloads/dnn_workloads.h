// AI workloads of Table I: distributed Caffe-style image classification
// with AlexNet and GoogLeNet.
//
// Structure per the paper (§IV-B, Fig 10): images are distributed across
// nodes and classified independently — no inter-node communication.  On
// each node the CPU cores decode JPEGs and feed raw tensors to the GPU,
// which runs the forward pass layer by layer (single precision, batch 1).
// The CPU/GPU *balance* is the whole story: four decode workers share the
// TX1's small GPU, while a GTX 980 host has more GPU than its cores and
// batch-1 kernels can use.
#pragma once

#include "workloads/workload.h"

namespace soc::workloads {

class DnnWorkload : public Workload {
 public:
  enum class Network { kAlexNet, kGoogLeNet };

  DnnWorkload(Network network, int total_images = 4096);

  std::string name() const override {
    return network_ == Network::kAlexNet ? "alexnet" : "googlenet";
  }
  bool gpu_accelerated() const override { return true; }
  arch::WorkloadProfile cpu_profile() const override;
  std::unique_ptr<WorkloadCursor> cursor(
      const BuildContext& ctx) const override;

  /// Forward-pass FLOPs per image.
  double flops_per_image() const;

 private:
  Network network_;
  int total_images_;
};

}  // namespace soc::workloads
