// Direct linear solver for the small systems arising in regression and
// curve fitting (the NNLS and PLS normal equations): partial-pivot
// Gaussian elimination.
#pragma once

#include "stats/matrix.h"

namespace soc::stats {

/// Solves A x = b by Gaussian elimination with partial pivoting.
/// Throws soc::Error if A is (numerically) singular.
Vec solve_gaussian(Matrix a, Vec b);

}  // namespace soc::stats
