#include "stats/solve.h"

#include <cmath>

#include "common/error.h"

namespace soc::stats {

Vec solve_gaussian(Matrix a, Vec b) {
  const std::size_t n = a.rows();
  SOC_CHECK(a.cols() == n && b.size() == n, "solve shape mismatch");
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: find largest magnitude on or below the diagonal.
    std::size_t piv = k;
    double best = std::fabs(a(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      if (std::fabs(a(r, k)) > best) {
        best = std::fabs(a(r, k));
        piv = r;
      }
    }
    SOC_CHECK(best > 1e-14, "singular matrix");
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(piv, c));
      std::swap(b[k], b[piv]);
    }
    for (std::size_t r = k + 1; r < n; ++r) {
      const double f = a(r, k) / a(k, k);
      if (f == 0.0) continue;
      for (std::size_t c = k; c < n; ++c) a(r, c) -= f * a(k, c);
      b[r] -= f * b[k];
    }
  }
  Vec x(n);
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t c = i + 1; c < n; ++c) s -= a(i, c) * x[c];
    x[i] = s / a(i, i);
  }
  return x;
}

}  // namespace soc::stats
