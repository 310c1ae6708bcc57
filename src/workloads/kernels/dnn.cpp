#include "workloads/kernels/dnn.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace soc::workloads::kernels {

Tensor::Tensor(std::size_t c, std::size_t h, std::size_t w, float fill)
    : channels(c), height(h), width(w), data(c * h * w, fill) {
  SOC_CHECK(c > 0 && h > 0 && w > 0, "empty tensor");
}

float& Tensor::at(std::size_t c, std::size_t y, std::size_t x) {
  return data[(c * height + y) * width + x];
}

float Tensor::at(std::size_t c, std::size_t y, std::size_t x) const {
  return data[(c * height + y) * width + x];
}

Tensor conv2d(const Tensor& in, std::size_t out_channels, std::size_t k,
              std::size_t stride, std::uint64_t seed) {
  SOC_CHECK(k >= 1 && stride >= 1, "bad conv geometry");
  SOC_CHECK(in.height >= k && in.width >= k, "kernel larger than input");
  const std::size_t out_h = (in.height - k) / stride + 1;
  const std::size_t out_w = (in.width - k) / stride + 1;
  Tensor out(out_channels, out_h, out_w);

  Rng rng(seed);
  const std::size_t wsize = out_channels * in.channels * k * k;
  std::vector<float> weights(wsize);
  for (float& w : weights) {
    w = static_cast<float>(rng.next_range(-0.1, 0.1));
  }

  for (std::size_t oc = 0; oc < out_channels; ++oc) {
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        float acc = 0.0f;
        for (std::size_t ic = 0; ic < in.channels; ++ic) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            for (std::size_t kx = 0; kx < k; ++kx) {
              const float w =
                  weights[((oc * in.channels + ic) * k + ky) * k + kx];
              acc += w * in.at(ic, oy * stride + ky, ox * stride + kx);
            }
          }
        }
        out.at(oc, oy, ox) = acc;
      }
    }
  }
  return out;
}

void relu(Tensor& t) {
  for (float& v : t.data) v = std::max(v, 0.0f);
}

Tensor maxpool(const Tensor& in, std::size_t k) {
  SOC_CHECK(k >= 1 && in.height >= k && in.width >= k, "bad pool geometry");
  Tensor out(in.channels, in.height / k, in.width / k);
  for (std::size_t c = 0; c < in.channels; ++c) {
    for (std::size_t oy = 0; oy < out.height; ++oy) {
      for (std::size_t ox = 0; ox < out.width; ++ox) {
        float best = in.at(c, oy * k, ox * k);
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            best = std::max(best, in.at(c, oy * k + ky, ox * k + kx));
          }
        }
        out.at(c, oy, ox) = best;
      }
    }
  }
  return out;
}

std::vector<float> fully_connected(const Tensor& in, std::size_t outputs,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(outputs, 0.0f);
  for (std::size_t o = 0; o < outputs; ++o) {
    Rng row = rng.split(o);
    float acc = 0.0f;
    for (float v : in.data) {
      acc += v * static_cast<float>(row.next_range(-0.05, 0.05));
    }
    out[o] = acc;
  }
  return out;
}

std::vector<float> softmax(const std::vector<float>& logits) {
  SOC_CHECK(!logits.empty(), "empty logits");
  const float max = *std::max_element(logits.begin(), logits.end());
  std::vector<float> out(logits.size());
  float sum = 0.0f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - max);
    sum += out[i];
  }
  for (float& v : out) v /= sum;
  return out;
}

double conv_flops(std::size_t in_c, std::size_t out_c, std::size_t out_h,
                  std::size_t out_w, std::size_t k) {
  return 2.0 * static_cast<double>(out_c) * out_h * out_w * in_c * k * k;
}

namespace {

LayerSpec conv_layer(const std::string& name, std::size_t in_c,
                     std::size_t out_c, std::size_t out_h, std::size_t out_w,
                     std::size_t k) {
  LayerSpec l;
  l.name = name;
  l.flops = conv_flops(in_c, out_c, out_h, out_w, k);
  const double activations =
      static_cast<double>(out_c) * out_h * out_w * sizeof(float);
  const double weights =
      static_cast<double>(out_c) * in_c * k * k * sizeof(float);
  l.bytes = activations * 2.0 + weights;
  l.weight_bytes = weights;
  l.parallelism = static_cast<double>(out_c) * out_h * out_w;
  return l;
}

LayerSpec fc_layer(const std::string& name, std::size_t inputs,
                   std::size_t outputs) {
  LayerSpec l;
  l.name = name;
  l.flops = 2.0 * static_cast<double>(inputs) * outputs;
  l.bytes = static_cast<double>(inputs) * outputs * sizeof(float);
  l.weight_bytes = l.bytes;
  l.parallelism = static_cast<double>(outputs);
  return l;
}

}  // namespace

std::vector<LayerSpec> alexnet_layers() {
  // Krizhevsky et al. 2012; 227×227×3 input, forward pass ≈ 1.4 GFLOPs.
  return {
      conv_layer("conv1", 3, 96, 55, 55, 11),
      conv_layer("conv2", 96, 256, 27, 27, 5),
      conv_layer("conv3", 256, 384, 13, 13, 3),
      conv_layer("conv4", 384, 384, 13, 13, 3),
      conv_layer("conv5", 384, 256, 13, 13, 3),
      fc_layer("fc6", 9216, 4096),
      fc_layer("fc7", 4096, 4096),
      fc_layer("fc8", 4096, 1000),
  };
}

std::vector<LayerSpec> googlenet_layers() {
  // Szegedy et al. 2014; inception modules folded into their dominant
  // convolutions (≈3.2 GFLOPs forward, ~60 kernel launches per image).
  std::vector<LayerSpec> layers = {
      conv_layer("conv1/7x7", 3, 64, 112, 112, 7),
      conv_layer("conv2/3x3r", 64, 64, 56, 56, 1),
      conv_layer("conv2/3x3", 64, 192, 56, 56, 3),
  };
  struct Inception {
    const char* name;
    std::size_t in_c, hw, c1, c3r, c3, c5r, c5, pp;
  };
  const Inception modules[] = {
      {"3a", 192, 28, 64, 96, 128, 16, 32, 32},
      {"3b", 256, 28, 128, 128, 192, 32, 96, 64},
      {"4a", 480, 14, 192, 96, 208, 16, 48, 64},
      {"4b", 512, 14, 160, 112, 224, 24, 64, 64},
      {"4c", 512, 14, 128, 128, 256, 24, 64, 64},
      {"4d", 512, 14, 112, 144, 288, 32, 64, 64},
      {"4e", 528, 14, 256, 160, 320, 32, 128, 128},
      {"5a", 832, 7, 256, 160, 320, 32, 128, 128},
      {"5b", 832, 7, 384, 192, 384, 48, 128, 128},
  };
  for (const Inception& m : modules) {
    const std::string base = std::string("inception_") + m.name;
    layers.push_back(conv_layer(base + "/1x1", m.in_c, m.c1, m.hw, m.hw, 1));
    layers.push_back(conv_layer(base + "/3x3r", m.in_c, m.c3r, m.hw, m.hw, 1));
    layers.push_back(conv_layer(base + "/3x3", m.c3r, m.c3, m.hw, m.hw, 3));
    layers.push_back(conv_layer(base + "/5x5r", m.in_c, m.c5r, m.hw, m.hw, 1));
    layers.push_back(conv_layer(base + "/5x5", m.c5r, m.c5, m.hw, m.hw, 5));
    layers.push_back(conv_layer(base + "/pool_proj", m.in_c, m.pp, m.hw, m.hw, 1));
  }
  layers.push_back(fc_layer("loss3/classifier", 1024, 1000));
  return layers;
}

double network_flops(const std::vector<LayerSpec>& layers) {
  double total = 0.0;
  for (const LayerSpec& l : layers) total += l.flops;
  return total;
}

}  // namespace soc::workloads::kernels
