#include "common/matrix.h"

#include <algorithm>
#include <cmath>

namespace polydab {

double Dot(const Vector& a, const Vector& b) {
  POLYDAB_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Norm(const Vector& v) { return std::sqrt(Dot(v, v)); }

void Axpy(double s, const Vector& b, Vector* a) {
  POLYDAB_CHECK(a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) (*a)[i] += s * b[i];
}

Vector Matrix::Multiply(const Vector& x) const {
  POLYDAB_CHECK(x.size() == cols_);
  Vector y(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    const double* row = &data_[r * cols_];
    for (size_t c = 0; c < cols_; ++c) s += row[c] * x[c];
    y[r] = s;
  }
  return y;
}

Vector Matrix::MultiplyTranspose(const Vector& x) const {
  POLYDAB_CHECK(x.size() == rows_);
  Vector y(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    const double xr = x[r];
    for (size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
  }
  return y;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

namespace {

// In-place Cholesky of the lower triangle of the n x n row-major matrix
// \p a; returns false if a pivot is not safely positive. Column j's
// entries below the pivot are computed four rows at a time: each keeps its
// own k-ascending sum, so only the number of dependency chains in flight
// changes, not a single rounding.
bool FactorLower(double* a, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    double* rj = a + j * n;
    double d = rj[j];
    for (size_t k = 0; k < j; ++k) d -= rj[k] * rj[k];
    if (!(d > 1e-300)) return false;
    const double lj = std::sqrt(d);
    rj[j] = lj;
    size_t i = j + 1;
    for (; i + 4 <= n; i += 4) {
      double* r0 = a + i * n;
      double* r1 = r0 + n;
      double* r2 = r1 + n;
      double* r3 = r2 + n;
      double s0 = r0[j], s1 = r1[j], s2 = r2[j], s3 = r3[j];
      for (size_t k = 0; k < j; ++k) {
        const double ljk = rj[k];
        s0 -= r0[k] * ljk;
        s1 -= r1[k] * ljk;
        s2 -= r2[k] * ljk;
        s3 -= r3[k] * ljk;
      }
      r0[j] = s0 / lj;
      r1[j] = s1 / lj;
      r2[j] = s2 / lj;
      r3[j] = s3 / lj;
    }
    for (; i < n; ++i) {
      double* ri = a + i * n;
      double s = ri[j];
      for (size_t k = 0; k < j; ++k) s -= ri[k] * rj[k];
      ri[j] = s / lj;
    }
  }
  return true;
}

// Solve L Lᵀ x = b given the factor from FactorLower. The forward solve
// writes y into \p x and the backward solve overwrites it in place: x[i]
// still holds y[i] when it is read, and every x[k > i] is final.
void SolveFactored(const double* l, size_t n, const Vector& b, Vector* x) {
  x->resize(n);
  double* xv = x->data();
  for (size_t i = 0; i < n; ++i) {
    const double* li = l + i * n;
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= li[k] * xv[k];
    xv[i] = s / li[i];
  }
  for (size_t i = n; i-- > 0;) {
    double s = xv[i];
    for (size_t k = i + 1; k < n; ++k) s -= l[k * n + i] * xv[k];
    xv[i] = s / l[i * n + i];
  }
}

}  // namespace

Status SolveCholeskyInto(const Matrix& a, const Vector& b, double reg,
                         Matrix* l, Vector* x) {
  POLYDAB_CHECK(a.rows() == a.cols());
  POLYDAB_CHECK(a.rows() == b.size());
  const size_t n = a.rows();

  // Scale the initial ridge to the matrix diagonal so behaviour is
  // invariant to the problem's overall magnitude.
  double diag_max = 0.0;
  for (size_t i = 0; i < n; ++i) diag_max = std::max(diag_max, std::fabs(a(i, i)));
  if (diag_max == 0.0) diag_max = 1.0;

  double ridge = reg;
  for (int attempt = 0; attempt < 12; ++attempt) {
    *l = a;  // reuses l's storage once it is large enough
    double* lp = l->data();
    if (ridge > 0.0) {
      for (size_t i = 0; i < n; ++i) lp[i * n + i] += ridge;
    }
    if (FactorLower(lp, n)) {
      SolveFactored(lp, n, b, x);
      return Status::OK();
    }
    ridge = (ridge == 0.0) ? 1e-12 * diag_max : ridge * 100.0;
  }
  return Status::NotConverged("Cholesky failed even with regularization");
}

Result<Vector> SolveCholesky(const Matrix& a, const Vector& b, double reg) {
  Matrix l;
  Vector x;
  Status st = SolveCholeskyInto(a, b, reg, &l, &x);
  if (!st.ok()) return st;
  return x;
}

}  // namespace polydab
