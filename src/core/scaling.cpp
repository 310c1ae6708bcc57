#include "core/scaling.h"

#include <cmath>

#include "common/error.h"
#include "stats/descriptive.h"
#include "stats/nnls.h"

namespace soc::core {

namespace {

stats::Vec basis_row(int nodes) {
  const double p = static_cast<double>(nodes);
  return {1.0, 1.0 / p, std::log2(p + 1.0), p};
}

}  // namespace

double ScalingModel::predict_seconds(int nodes) const {
  SOC_CHECK(nodes >= 1, "node count must be positive");
  const stats::Vec row = basis_row(nodes);
  double t = 0.0;
  for (std::size_t i = 0; i < row.size(); ++i) t += coefficients[i] * row[i];
  return t;
}

double ScalingModel::predict_speedup(int nodes) const {
  const double t = predict_seconds(nodes);
  return t > 0.0 ? reference_seconds / t : 0.0;
}

ScalingModel fit_scaling(const std::vector<ScalingSample>& samples) {
  SOC_CHECK(samples.size() >= 3, "need >= 3 samples to fit scaling model");
  stats::Matrix design(samples.size(), 4);
  stats::Vec y(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    SOC_CHECK(samples[i].nodes >= 1 && samples[i].seconds > 0.0,
              "invalid scaling sample");
    const stats::Vec row = basis_row(samples[i].nodes);
    for (std::size_t c = 0; c < row.size(); ++c) design(i, c) = row[c];
    y[i] = samples[i].seconds;
  }

  ScalingModel model;
  model.coefficients = stats::nnls(design, y);

  stats::Vec fitted(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    fitted[i] = 0.0;
    const stats::Vec row = basis_row(samples[i].nodes);
    for (std::size_t c = 0; c < row.size(); ++c) {
      fitted[i] += model.coefficients[c] * row[c];
    }
  }
  model.r2 = stats::r_squared(y, fitted);
  model.reference_seconds = model.predict_seconds(1);
  return model;
}

}  // namespace soc::core
