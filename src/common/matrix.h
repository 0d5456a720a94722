#ifndef POLYDAB_COMMON_MATRIX_H_
#define POLYDAB_COMMON_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

/// \file matrix.h
/// Small dense linear-algebra kernel used by the geometric-program solver
/// (src/gp). The Newton systems there are modest (tens to a few hundred
/// variables), so a straightforward row-major dense implementation with a
/// regularized Cholesky factorization is both sufficient and dependable.

namespace polydab {

using Vector = std::vector<double>;

/// Euclidean inner product. Sizes must match.
double Dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double Norm(const Vector& v);

/// In-place a += s * b.
void Axpy(double s, const Vector& b, Vector* a);

/// \brief Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Reshape to rows x cols with every entry reset to zero. Reuses the
  /// existing allocation when capacity suffices, which lets the GP
  /// solver's workspace (gp/solver_internal.h) rebuild its Newton system
  /// every iteration without touching the heap.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  double& operator()(size_t r, size_t c) {
    POLYDAB_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    POLYDAB_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Row-major storage, for kernels that check the shape once per call
  /// and then index rows directly instead of paying a bounds check per
  /// entry.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// y = M x.
  Vector Multiply(const Vector& x) const;

  /// y = Mᵀ x.
  Vector MultiplyTranspose(const Vector& x) const;

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// \brief Solve the symmetric positive-definite system A x = b by Cholesky
/// factorization.
///
/// If A is only positive semi-definite (or slightly indefinite from
/// round-off, common near the boundary of a barrier subproblem), a Tikhonov
/// ridge `reg * I` is added and the factorization retried with a growing
/// ridge, up to a bounded number of attempts. Returns kNotConverged if no
/// ridge in range produces a valid factorization.
Result<Vector> SolveCholesky(const Matrix& a, const Vector& b,
                             double reg = 0.0);

/// \brief SolveCholesky without allocation: factors into \p l and writes
/// the solution to \p x, both reused across calls (resized here; once
/// their capacity suffices, no call touches the heap).
///
/// Reads only the lower triangle of \p a, so callers may assemble just
/// that half. Every entry of the factor and of both triangular solves is
/// the textbook k-ascending sum, so the result is bit-identical to a
/// column-by-column factorization; the factorization merely runs four
/// rows' independent sums side by side.
Status SolveCholeskyInto(const Matrix& a, const Vector& b, double reg,
                         Matrix* l, Vector* x);

}  // namespace polydab

#endif  // POLYDAB_COMMON_MATRIX_H_
