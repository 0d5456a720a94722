#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "reference_cholesky.h"

namespace polydab {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad QAB");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad QAB");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::Infeasible("no feasible point"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInfeasible);
}

Result<double> HalfIfPositive(double x) {
  if (x <= 0) return Status::OutOfRange("x must be positive");
  return x / 2;
}

Result<double> QuarterIfPositive(double x) {
  POLYDAB_ASSIGN_OR_RETURN(double h, HalfIfPositive(x));
  return HalfIfPositive(h);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<double> ok = QuarterIfPositive(8.0);
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(*ok, 2.0);
  Result<double> bad = QuarterIfPositive(-1.0);
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(MathUtilTest, LogSumExpMatchesDirect) {
  std::vector<double> z = {0.1, -2.0, 1.5};
  double direct = std::log(std::exp(0.1) + std::exp(-2.0) + std::exp(1.5));
  EXPECT_NEAR(LogSumExp(z), direct, 1e-12);
}

TEST(MathUtilTest, LogSumExpHandlesLargeExponents) {
  std::vector<double> z = {1000.0, 999.0};
  EXPECT_NEAR(LogSumExp(z), 1000.0 + std::log(1.0 + std::exp(-1.0)), 1e-9);
}

TEST(MathUtilTest, LogSumExpEmptyIsMinusInfinity) {
  EXPECT_EQ(LogSumExp({}), -std::numeric_limits<double>::infinity());
}

TEST(RngTest, ParetoHasRequestedMean) {
  Rng rng(7);
  const double mean = 0.1;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Pareto(mean, 2.5);
  EXPECT_NEAR(sum / n, mean, 0.01);
}

TEST(RngTest, ParetoIsBoundedBelowByScale) {
  Rng rng(11);
  const double mean = 0.1, shape = 2.5;
  const double scale = mean * (shape - 1.0) / shape;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(mean, shape), scale);
  }
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(MatrixTest, MultiplyAndTranspose) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  Vector x = {1, 1, 1};
  Vector y = m.Multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
  Vector z = m.MultiplyTranspose({1, 1});
  EXPECT_DOUBLE_EQ(z[0], 5);
  EXPECT_DOUBLE_EQ(z[1], 7);
  EXPECT_DOUBLE_EQ(z[2], 9);
}

TEST(MatrixTest, CholeskySolvesSpdSystem) {
  // A = L L^T with known L.
  Matrix a(3, 3);
  a(0, 0) = 4;
  a(0, 1) = a(1, 0) = 2;
  a(0, 2) = a(2, 0) = 0;
  a(1, 1) = 5;
  a(1, 2) = a(2, 1) = 1;
  a(2, 2) = 3;
  Vector b = {2, 8, 4};
  auto x = SolveCholesky(a, b);
  ASSERT_TRUE(x.ok());
  Vector check = a.Multiply(*x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(check[i], b[i], 1e-10);
}

TEST(MatrixTest, CholeskyRegularizesSemidefinite) {
  // Rank-1 PSD matrix; plain Cholesky would fail on the zero pivot.
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = a(1, 0) = 1;
  a(1, 1) = 1;
  auto x = SolveCholesky(a, {1, 1});
  ASSERT_TRUE(x.ok());
  // Regularized solution still approximately solves the system.
  Vector check = a.Multiply(*x);
  EXPECT_NEAR(check[0], 1.0, 1e-5);
  EXPECT_NEAR(check[1], 1.0, 1e-5);
}

/// n x n matrix B Bᵀ with B random of the given rank (rank n: SPD). Only
/// the lower triangle is meaningful to the solvers; the upper one is
/// filled with garbage so a kernel that read it would be caught.
Matrix RandomGram(size_t n, size_t rank, Rng* rng) {
  std::vector<Vector> rows(n, Vector(rank));
  for (Vector& r : rows) {
    for (double& v : r) v = rng->Uniform(-1.0, 1.0);
  }
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double s = 0.0;
      for (size_t k = 0; k < rank; ++k) s += rows[i][k] * rows[j][k];
      a(i, j) = s;
    }
    for (size_t j = i + 1; j < n; ++j) a(i, j) = rng->Uniform(-1e3, 1e3);
  }
  return a;
}

Vector RandomVector(size_t n, Rng* rng) {
  Vector b(n);
  for (double& v : b) v = rng->Uniform(-10.0, 10.0);
  return b;
}

void ExpectSameBits(const Vector& got, const Vector& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << label << " x[" << i << "]: " << got[i] << " vs " << want[i];
  }
}

TEST(MatrixTest, CholeskyIntoMatchesReferenceBitwise) {
  // Every n from 1 to 40 covers sizes below, at and past the four-row
  // block, with every remainder count. The workspace is reused across
  // sizes, growing and shrinking, as the solver's is.
  Rng rng(17);
  Matrix l;
  Vector x;
  for (size_t n = 1; n <= 40; ++n) {
    const Matrix a = RandomGram(n, n, &rng);
    const Vector b = RandomVector(n, &rng);
    for (double reg : {0.0, 1e-3}) {
      const std::string label =
          "n=" + std::to_string(n) + " reg=" + std::to_string(reg);
      auto want = reference::SolveCholesky(a, b, reg);
      ASSERT_TRUE(want.ok()) << label;
      ASSERT_TRUE(SolveCholeskyInto(a, b, reg, &l, &x).ok()) << label;
      ExpectSameBits(x, *want, label);
      auto wrapped = SolveCholesky(a, b, reg);
      ASSERT_TRUE(wrapped.ok()) << label;
      ExpectSameBits(*wrapped, *want, label + " wrapper");
    }
  }
}

TEST(MatrixTest, CholeskyIntoRidgeRetryMatchesReference) {
  // Rank n/2: the plain factorization hits a zero pivot and the ridge
  // grows until one succeeds; the retried solve must match too.
  Rng rng(23);
  Matrix l;
  Vector x;
  for (size_t n = 2; n <= 40; n += 3) {
    const Matrix a = RandomGram(n, n / 2, &rng);
    const Vector b = RandomVector(n, &rng);
    const std::string label = "n=" + std::to_string(n);
    auto want = reference::SolveCholesky(a, b);
    ASSERT_TRUE(want.ok()) << label;
    ASSERT_TRUE(SolveCholeskyInto(a, b, 0.0, &l, &x).ok()) << label;
    ExpectSameBits(x, *want, label);
  }
}

TEST(MatrixTest, CholeskyIntoRejectsIndefinite) {
  // Eigenvalues ±1e30 with a zero diagonal: the ridge schedule (1e-12 up
  // to 1e8, for a diagonal scale of 1) never lifts the negative one.
  Matrix a(2, 2);
  a(1, 0) = a(0, 1) = 1e30;
  const Vector b(2, 1.0);
  Matrix l;
  Vector x;
  EXPECT_EQ(SolveCholeskyInto(a, b, 0.0, &l, &x).code(),
            StatusCode::kNotConverged);
  EXPECT_EQ(reference::SolveCholesky(a, b).status().code(),
            StatusCode::kNotConverged);
  EXPECT_EQ(SolveCholesky(a, b).status().code(), StatusCode::kNotConverged);
}

TEST(VectorOpsTest, DotNormAxpy) {
  Vector a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32);
  EXPECT_DOUBLE_EQ(Norm({3, 4}), 5);
  Axpy(2.0, b, &a);
  EXPECT_DOUBLE_EQ(a[0], 9);
  EXPECT_DOUBLE_EQ(a[2], 15);
}

}  // namespace
}  // namespace polydab
