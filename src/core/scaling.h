// Strong-scaling model fitting and extrapolation (Figs 5–6).
//
// The paper measures speedups at small node counts, fits a model, and
// extrapolates to hundreds of nodes (reporting the fit's r²).  We fit
// runtime to a physically-motivated non-negative basis
//
//   T(P) ≈ a·1 + b/P + c·log2(P) + d·P
//
// (serial fraction, divisible work, tree-collective cost, all-to-all /
// contention cost) via NNLS, and report speedup S(P) = T_ref / T(P).
#pragma once

#include <vector>

#include "stats/matrix.h"

namespace soc::core {

struct ScalingSample {
  int nodes = 1;
  double seconds = 0.0;
};

struct ScalingModel {
  /// Basis coefficients [serial, perfectly-parallel, log, linear].
  stats::Vec coefficients;
  double r2 = 0.0;
  /// Reference runtime used as the speedup numerator (T at the smallest
  /// measured node count, scaled to 1 node by the model).
  double reference_seconds = 0.0;

  /// Predicted runtime at `nodes`.
  double predict_seconds(int nodes) const;
  /// Predicted speedup relative to the 1-node model runtime.
  double predict_speedup(int nodes) const;
};

/// Fits the scaling model to measured (nodes, seconds) samples.  Requires
/// at least three distinct node counts.
ScalingModel fit_scaling(const std::vector<ScalingSample>& samples);

}  // namespace soc::core
