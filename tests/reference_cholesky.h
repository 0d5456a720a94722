#ifndef POLYDAB_TESTS_REFERENCE_CHOLESKY_H_
#define POLYDAB_TESTS_REFERENCE_CHOLESKY_H_

#include <algorithm>
#include <cmath>

#include "common/matrix.h"
#include "common/status.h"

/// \file reference_cholesky.h
/// Test oracle for `SolveCholeskyInto` (common/matrix.h): the textbook
/// column-by-column Cholesky through bounds-checked accessors, with a fresh
/// copy of the matrix and fresh vectors on every call, and the same
/// ridge-retry schedule. The production kernel must match it bit for bit.

namespace polydab::reference {

// In-place Cholesky of the lower triangle; returns false if a pivot is not
// safely positive.
inline bool CholeskyFactor(Matrix* a) {
  const size_t n = a->rows();
  for (size_t j = 0; j < n; ++j) {
    double d = (*a)(j, j);
    for (size_t k = 0; k < j; ++k) d -= (*a)(j, k) * (*a)(j, k);
    if (!(d > 1e-300)) return false;
    const double lj = std::sqrt(d);
    (*a)(j, j) = lj;
    for (size_t i = j + 1; i < n; ++i) {
      double s = (*a)(i, j);
      for (size_t k = 0; k < j; ++k) s -= (*a)(i, k) * (*a)(j, k);
      (*a)(i, j) = s / lj;
    }
  }
  return true;
}

inline Vector CholeskySolveFactored(const Matrix& l, const Vector& b) {
  const size_t n = l.rows();
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

inline Result<Vector> SolveCholesky(const Matrix& a, const Vector& b,
                                    double reg = 0.0) {
  POLYDAB_CHECK(a.rows() == a.cols());
  POLYDAB_CHECK(a.rows() == b.size());
  const size_t n = a.rows();
  double diag_max = 0.0;
  for (size_t i = 0; i < n; ++i) {
    diag_max = std::max(diag_max, std::fabs(a(i, i)));
  }
  if (diag_max == 0.0) diag_max = 1.0;
  double ridge = reg;
  for (int attempt = 0; attempt < 12; ++attempt) {
    Matrix l = a;
    if (ridge > 0.0) {
      for (size_t i = 0; i < n; ++i) l(i, i) += ridge;
    }
    if (CholeskyFactor(&l)) return CholeskySolveFactored(l, b);
    ridge = (ridge == 0.0) ? 1e-12 * diag_max : ridge * 100.0;
  }
  return Status::NotConverged("Cholesky failed even with regularization");
}

}  // namespace polydab::reference

#endif  // POLYDAB_TESTS_REFERENCE_CHOLESKY_H_
