// Layer tables of AlexNet and GoogLeNet with their FLOP and byte
// accounting, which the alexnet/googlenet workload generators read, and
// small-scale convolution / pooling / fully-connected forward passes that
// examples/ai_cluster runs (no generator does).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace soc::workloads::kernels {

/// A dense tensor in CHW layout.
struct Tensor {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;
  std::vector<float> data;

  Tensor() = default;
  Tensor(std::size_t c, std::size_t h, std::size_t w, float fill = 0.0f);
  float& at(std::size_t c, std::size_t y, std::size_t x);
  float at(std::size_t c, std::size_t y, std::size_t x) const;
};

/// Valid-padding stride-s convolution with `out_channels` k×k filters.
/// Weights are CKK-per-output-channel, deterministic from `seed`.
Tensor conv2d(const Tensor& in, std::size_t out_channels, std::size_t k,
              std::size_t stride, std::uint64_t seed);

/// In-place ReLU.
void relu(Tensor& t);

/// k×k max pooling with stride k.
Tensor maxpool(const Tensor& in, std::size_t k);

/// Fully connected layer to `outputs` neurons.
std::vector<float> fully_connected(const Tensor& in, std::size_t outputs,
                                   std::uint64_t seed);

/// Numerically stable softmax.
std::vector<float> softmax(const std::vector<float>& logits);

/// FLOPs of one conv layer: 2 · outC · outH · outW · inC · k².
double conv_flops(std::size_t in_c, std::size_t out_c, std::size_t out_h,
                  std::size_t out_w, std::size_t k);

/// One layer of a network description used by the workload generators.
struct LayerSpec {
  std::string name;
  double flops = 0.0;        ///< Forward FLOPs per image.
  double bytes = 0.0;        ///< Activations + weights traffic per image.
  double weight_bytes = 0.0; ///< Weight traffic (amortizes over a batch).
  double parallelism = 0.0;  ///< Output elements (GPU thread count proxy).
};

/// AlexNet forward pass, 227×227×3 input (Krizhevsky et al.).
std::vector<LayerSpec> alexnet_layers();
/// GoogLeNet forward pass (inception modules folded to kernel-level ops).
std::vector<LayerSpec> googlenet_layers();

/// Total forward FLOPs per image of a layer table.
double network_flops(const std::vector<LayerSpec>& layers);

}  // namespace soc::workloads::kernels
