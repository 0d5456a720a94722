// Newton-kernel oracle (docs/SOLVER.md, "Newton kernel").
//
// The solver's kernel — one softmax pass per posynomial, the lower
// Hessian triangle over the gradient support, an allocation-free
// row-blocked Cholesky — must reproduce bit for bit the plain dense kernel
// kept here as the reference: a value pass and then a full derivative pass
// per constraint, the general log-sum-exp and softmax even for a single
// term, a dense Hessian filled in both triangles, the barrier value
// evaluated afresh for the line search, and a Cholesky that copies its
// input on every call (reference_cholesky.h).
//
// A reference barrier solver built on that kernel drives each solve. At
// every Newton system it meets, the production assembly and step at the
// same point are compared bitwise: gradient, lower Hessian triangle,
// barrier (or phase-I) objective, Newton step, and each damped-retry step.
// The whole solve is then compared with the production SolveConvexGp:
// x, objective and every SolveStats field.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/condition.h"
#include "core/dual_dab.h"
#include "core/optimal_refresh.h"
#include "gp/gp_solver.h"
#include "gp/solver_internal.h"
#include "random_gp.h"
#include "reference_cholesky.h"

namespace polydab::gp {
namespace {

using internal::ConvexGp;
using internal::SoaPosy;
using internal::SolveStats;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMaxStepInf = 5.0;
constexpr double kWarmFeasMargin = 1e-12;

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// ---------------------------------------------------------------------
// The reference kernel.

struct RefScratch {
  Vector z, w, g, gi;
  Matrix hblock;
};

double RefLogSumExp(const std::vector<double>& z) {
  if (z.empty()) return -std::numeric_limits<double>::infinity();
  const double m = *std::max_element(z.begin(), z.end());
  if (!std::isfinite(m)) return m;
  double s = 0.0;
  for (double zi : z) s += std::exp(zi - m);
  return m + std::log(s);
}

double RefValue(const SoaPosy& p, const Vector& y, Vector* z) {
  const int nt = p.num_terms();
  z->resize(static_cast<size_t>(nt));
  for (int k = 0; k < nt; ++k) {
    double s = p.logc[static_cast<size_t>(k)];
    for (int idx = p.term_off[static_cast<size_t>(k)];
         idx < p.term_off[static_cast<size_t>(k) + 1]; ++idx) {
      s += p.exp_coef[static_cast<size_t>(idx)] *
           y[static_cast<size_t>(p.exp_var[static_cast<size_t>(idx)])];
    }
    (*z)[static_cast<size_t>(k)] = s;
  }
  return RefLogSumExp(*z);
}

/// grad += w_grad * g;
/// hess += w_hess * (Σ w_k a_k a_kᵀ − g gᵀ) + w_outer * g gᵀ, both
/// triangles, over every entry.
double RefAccumulate(const SoaPosy& p, const Vector& y, double w_grad,
                     double w_hess, double w_outer, Vector* grad,
                     Matrix* hess, Vector* g_out, RefScratch* ws) {
  const size_t n = y.size();
  const int nt = p.num_terms();
  const double f = RefValue(p, y, &ws->z);
  ws->g.assign(n, 0.0);
  ws->w.resize(static_cast<size_t>(nt));
  for (int k = 0; k < nt; ++k) {
    const double wk = std::exp(ws->z[static_cast<size_t>(k)] - f);
    ws->w[static_cast<size_t>(k)] = wk;
    for (int idx = p.term_off[static_cast<size_t>(k)];
         idx < p.term_off[static_cast<size_t>(k) + 1]; ++idx) {
      ws->g[static_cast<size_t>(p.exp_var[static_cast<size_t>(idx)])] +=
          wk * p.exp_coef[static_cast<size_t>(idx)];
    }
  }
  if (grad != nullptr && w_grad != 0.0) {
    for (size_t j = 0; j < n; ++j) (*grad)[j] += w_grad * ws->g[j];
  }
  if (hess != nullptr) {
    if (w_hess != 0.0) {
      for (int k = 0; k < nt; ++k) {
        const double wk = ws->w[static_cast<size_t>(k)] * w_hess;
        const int lo = p.term_off[static_cast<size_t>(k)];
        const int hi = p.term_off[static_cast<size_t>(k) + 1];
        for (int ii = lo; ii < hi; ++ii) {
          const size_t vi =
              static_cast<size_t>(p.exp_var[static_cast<size_t>(ii)]);
          const double ei = p.exp_coef[static_cast<size_t>(ii)];
          for (int jj = lo; jj < hi; ++jj) {
            (*hess)(vi,
                    static_cast<size_t>(p.exp_var[static_cast<size_t>(jj)])) +=
                wk * ei * p.exp_coef[static_cast<size_t>(jj)];
          }
        }
      }
    }
    const double wo = w_outer - w_hess;
    if (wo != 0.0) {
      for (size_t i = 0; i < n; ++i) {
        if (ws->g[i] == 0.0) continue;
        for (size_t j = 0; j < n; ++j) {
          if (ws->g[j] == 0.0) continue;
          (*hess)(i, j) += wo * ws->g[i] * ws->g[j];
        }
      }
    }
  }
  if (g_out != nullptr) g_out->assign(ws->g.begin(), ws->g.end());
  return f;
}

double RefBarrierValue(const ConvexGp& cg, const Vector& y, double t,
                       RefScratch* ws) {
  double phi = t * RefValue(cg.objective, y, &ws->z);
  for (const SoaPosy& c : cg.constraints) {
    const double fi = RefValue(c, y, &ws->z);
    if (fi >= 0.0) return kInf;
    phi -= std::log(-fi);
  }
  return phi;
}

double InfNorm(const Vector& d) {
  double mx = 0.0;
  for (double di : d) mx = std::max(mx, std::fabs(di));
  return mx;
}

double ClampStep(Vector* d) {
  const double mx = InfNorm(*d);
  if (mx <= kMaxStepInf) return 1.0;
  const double scale = kMaxStepInf / mx;
  for (double& di : *d) di *= scale;
  return scale;
}

// ---------------------------------------------------------------------
// Per-system comparison against the production kernel.

/// Compares the production kernel with the reference at each Newton
/// system the reference solver meets; records the first mismatch.
class KernelCheck {
 public:
  int systems() const { return systems_; }
  int phase1_systems() const { return phase1_systems_; }
  int damped_steps() const { return damped_steps_; }
  int mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_; }

  void Centering(const ConvexGp& cg, const Vector& y, double t,
                 const Vector& grad, const Matrix& hess,
                 const Result<Vector>& step) {
    ++systems_;
    auto phi = internal::AssembleCenteringSystem(cg, y, t, &ws_);
    Expect(phi.ok(), "centering assembly failed");
    if (!phi.ok()) return;
    ExpectVector(ws_.grad, grad, "gradient");
    ExpectLower(ws_.hess, hess, "Hessian");
    Expect(SameBits(*phi, RefBarrierValue(cg, y, t, &scratch_)), "phi0");
    ExpectStep(0.0, step);
  }

  void CenteringInfeasible(const ConvexGp& cg, const Vector& y, double t) {
    ++systems_;
    Expect(!internal::AssembleCenteringSystem(cg, y, t, &ws_).ok(),
           "assembly accepted an infeasible point");
  }

  /// The damped retry re-solves the system just compared with a ridge.
  void DampedStep(double reg, const Result<Vector>& step) {
    ++damped_steps_;
    ExpectStep(reg, step);
  }

  void PhaseOne(const ConvexGp& cg, const Vector& y, double s, double t,
                bool bail, const Vector& grad, const Matrix& hess,
                const Result<Vector>* step) {
    ++systems_;
    ++phase1_systems_;
    double val = 0.0;
    const bool ok =
        internal::AssemblePhaseOneSystem(cg, y, s, t, &ws_, &val);
    Expect(ok == !bail, "phase-I bail");
    if (bail || !ok) return;
    ExpectVector(ws_.grad, grad, "phase-I gradient");
    ExpectLower(ws_.hess, hess, "phase-I Hessian");
    double val0 = t * s;
    for (const SoaPosy& c : cg.constraints) {
      val0 -= std::log(s - RefValue(c, y, &scratch_.z));
    }
    Expect(SameBits(val, val0), "phase-I val0");
    ExpectStep(0.0, *step);
  }

 private:
  void Expect(bool same, const std::string& what) {
    if (same) return;
    if (mismatches_++ == 0) {
      first_ = what + " at system " + std::to_string(systems_);
    }
  }
  void ExpectVector(const Vector& got, const Vector& want,
                    const std::string& what) {
    bool same = got.size() == want.size();
    for (size_t i = 0; same && i < got.size(); ++i) {
      same = SameBits(got[i], want[i]);
    }
    Expect(same, what);
  }
  void ExpectLower(const Matrix& got, const Matrix& want,
                   const std::string& what) {
    bool same = got.rows() == want.rows() && got.cols() == want.cols();
    for (size_t i = 0; same && i < got.rows(); ++i) {
      for (size_t j = 0; same && j <= i; ++j) {
        same = SameBits(got(i, j), want(i, j));
      }
    }
    Expect(same, what);
  }
  void ExpectStep(double reg, const Result<Vector>& want) {
    const Status st =
        SolveCholeskyInto(ws_.hess, ws_.grad, reg, &ws_.chol, &ws_.d);
    Expect(st.ok() == want.ok(), "step status");
    if (st.ok() && want.ok()) ExpectVector(ws_.d, *want, "Newton step");
  }

  internal::Workspace ws_;
  RefScratch scratch_;
  int systems_ = 0;
  int phase1_systems_ = 0;
  int damped_steps_ = 0;
  int mismatches_ = 0;
  std::string first_;
};

// ---------------------------------------------------------------------
// The reference barrier solver: the production control flow (stage
// budget, damped retry, phase I, warm trust, cold restarts) over the
// reference kernel.

struct RefSolver {
  const ConvexGp& cg;
  const SolverOptions& opt;
  KernelCheck* check;
  RefScratch s;

  Result<int> CenterStep(double t, Vector* y, SolveStats* stats,
                         bool damped) {
    const size_t n = y->size();
    int iter = 0;
    int counted = 0;
    const int hard_cap = 10 * opt.max_newton_per_stage;
    while (counted < opt.max_newton_per_stage && iter < hard_cap) {
      Vector grad(n, 0.0);
      Matrix hess(n, n);
      RefAccumulate(cg.objective, *y, t, t, 0.0, &grad, &hess, nullptr, &s);
      for (const SoaPosy& c : cg.constraints) {
        const double fi = RefValue(c, *y, &s.z);
        if (fi >= 0.0) {
          check->CenteringInfeasible(cg, *y, t);
          return Status::Internal("barrier stage entered infeasible point");
        }
        const double inv = 1.0 / (-fi);
        RefAccumulate(c, *y, inv, inv, 1.0 / (fi * fi), &grad, &hess,
                      nullptr, &s);
      }
      auto step = reference::SolveCholesky(hess, grad);
      check->Centering(cg, *y, t, grad, hess, step);
      if (!step.ok()) return step.status();
      Vector d = std::move(step).value();
      for (double& di : d) di = -di;

      double lambda2 = -Dot(grad, d);
      if (lambda2 / 2.0 < opt.inner_tol * std::max(1.0, t)) return iter;
      double scale = 1.0;
      if (!damped) {
        scale = ClampStep(&d);
        lambda2 *= scale;
      } else if (InfNorm(d) > kMaxStepInf) {
        double diag_max = 0.0;
        for (size_t i = 0; i < n; ++i) diag_max = std::max(diag_max, hess(i, i));
        double reg = std::max(1e-12, 1e-10 * diag_max);
        bool fits = false;
        for (int attempt = 0; attempt < 40 && !fits; ++attempt) {
          auto dstep = reference::SolveCholesky(hess, grad, reg);
          check->DampedStep(reg, dstep);
          if (dstep.ok()) {
            Vector d2 = std::move(dstep).value();
            for (double& di : d2) di = -di;
            if (InfNorm(d2) <= kMaxStepInf) {
              d = std::move(d2);
              fits = true;
            }
          }
          reg *= 10.0;
        }
        if (!fits) {
          scale = ClampStep(&d);
          lambda2 *= scale;
        } else {
          lambda2 = -Dot(grad, d);
          if (lambda2 / 2.0 < opt.inner_tol * std::max(1.0, t)) return iter;
        }
      }

      const double phi0 = RefBarrierValue(cg, *y, t, &s);
      double alpha = 1.0;
      Vector y_new(n);
      for (int ls = 0; ls < 60; ++ls) {
        for (size_t j = 0; j < n; ++j) y_new[j] = (*y)[j] + alpha * d[j];
        const double phi1 = RefBarrierValue(cg, y_new, t, &s);
        if (phi1 <= phi0 - 0.25 * alpha * lambda2) break;
        alpha *= 0.5;
        ++stats->line_search_backtracks;
        if (alpha < 1e-14) return iter;
      }
      *y = y_new;
      ++stats->newton_iterations;
      ++iter;
      if (scale == 1.0) ++counted;
    }
    return Status::NotConverged("Newton centering exceeded iteration limit");
  }

  Result<Vector> PhaseOne(const Vector& y0, SolveStats* stats) {
    stats->phase1 = true;
    const size_t n = static_cast<size_t>(cg.num_vars);
    Vector y = y0;
    double sl = 0.0;
    for (const SoaPosy& c : cg.constraints) {
      sl = std::max(sl, RefValue(c, y, &s.z));
    }
    if (sl < -1e-6) return y;
    sl += 1.0;

    double t = 1.0;
    const double m = static_cast<double>(cg.constraints.size());
    for (int outer = 0; outer < opt.max_outer; ++outer) {
      for (int iter = 0; iter < opt.max_newton_per_stage; ++iter) {
        Vector grad(n + 1, 0.0);
        Matrix hess(n + 1, n + 1);
        grad[n] = t;
        bool bail = false;
        for (const SoaPosy& c : cg.constraints) {
          const double fi =
              RefAccumulate(c, y, 0.0, 0.0, 0.0, nullptr, nullptr, &s.gi, &s);
          const double gap = sl - fi;
          if (gap <= 0.0) {
            bail = true;
            break;
          }
          const double inv = 1.0 / gap;
          s.hblock.Resize(n, n);
          RefAccumulate(c, y, 0.0, inv, inv * inv, nullptr, &s.hblock,
                        nullptr, &s);
          for (size_t i = 0; i < n; ++i) {
            grad[i] += inv * s.gi[i];
            for (size_t j = 0; j < n; ++j) hess(i, j) += s.hblock(i, j);
            hess(i, n) += -inv * inv * s.gi[i];
            hess(n, i) += -inv * inv * s.gi[i];
          }
          grad[n] += -inv;
          hess(n, n) += inv * inv;
        }
        if (bail) {
          check->PhaseOne(cg, y, sl, t, true, grad, hess, nullptr);
          break;
        }

        auto step = reference::SolveCholesky(hess, grad);
        check->PhaseOne(cg, y, sl, t, false, grad, hess, &step);
        if (!step.ok()) return step.status();
        Vector d = std::move(step).value();
        for (double& di : d) di = -di;
        double lambda2 = -Dot(grad, d);
        if (lambda2 / 2.0 < opt.inner_tol) break;
        lambda2 *= ClampStep(&d);

        double val0 = t * sl;
        for (const SoaPosy& c : cg.constraints) {
          val0 -= std::log(sl - RefValue(c, y, &s.z));
        }
        double alpha = 1.0;
        Vector y_try(n);
        for (int ls = 0; ls < 60; ++ls) {
          for (size_t j = 0; j < n; ++j) y_try[j] = y[j] + alpha * d[j];
          const double s_try = sl + alpha * d[n];
          bool feas = true;
          double max_f = -kInf;
          double val = t * s_try;
          for (const SoaPosy& c : cg.constraints) {
            const double fi = RefValue(c, y_try, &s.z);
            max_f = std::max(max_f, fi);
            const double gap = s_try - fi;
            if (gap <= 0.0) {
              feas = false;
              break;
            }
            val -= std::log(gap);
          }
          if (feas && max_f < -kInteriorMargin) return y_try;
          if (feas && val <= val0 - 0.25 * alpha * lambda2) break;
          alpha *= 0.5;
          ++stats->line_search_backtracks;
          if (alpha < 1e-14) break;
        }
        if (alpha < 1e-14) break;
        for (size_t j = 0; j < n; ++j) y[j] += alpha * d[j];
        sl += alpha * d[n];
        ++stats->newton_iterations;
        if (sl < -kInteriorMargin) return y;
      }
      if (sl < -1e-6) return y;
      if (m / t < opt.duality_tol) break;
      t *= opt.barrier_mu;
    }
    if (sl < 0.0) return y;
    return Status::Infeasible("phase I ended with max constraint value " +
                              std::to_string(sl));
  }

  Result<GpSolution> Solve(const GpProblem& problem, const Vector* warm_start,
                           SolveStats* stats) {
    const size_t n = static_cast<size_t>(cg.num_vars);
    Vector y(n, 0.0);
    if (warm_start != nullptr) {
      for (size_t j = 0; j < n; ++j) y[j] = std::log((*warm_start)[j]);
    }
    const double m = std::max<size_t>(cg.constraints.size(), 1);
    auto run_barrier = [&](Vector* yy, double t) -> Result<int> {
      int newton_total = 0;
      for (int outer = 0; outer < opt.max_outer; ++outer) {
        Vector y_stage = *yy;
        Result<int> iters = CenterStep(t, yy, stats, false);
        if (!iters.ok() &&
            iters.status().code() == StatusCode::kNotConverged) {
          *yy = y_stage;
          ++stats->damped_stages;
          iters = CenterStep(t, yy, stats, true);
        }
        if (!iters.ok()) return iters.status();
        newton_total += *iters;
        if (m / t < opt.duality_tol) break;
        t *= opt.barrier_mu;
      }
      return newton_total;
    };
    auto finish = [&](const Vector& yy, int newton_total) {
      GpSolution sol;
      sol.x.resize(n);
      for (size_t j = 0; j < n; ++j) sol.x[j] = std::exp(yy[j]);
      sol.objective = problem.objective.Evaluate(sol.x);
      sol.newton_iterations = newton_total;
      return sol;
    };

    if (!cg.constraints.empty()) {
      bool warm_feasible = warm_start != nullptr;
      if (warm_feasible) {
        for (const SoaPosy& c : cg.constraints) {
          if (RefValue(c, y, &s.z) >= -kWarmFeasMargin) {
            warm_feasible = false;
            break;
          }
        }
      }
      if (warm_feasible) {
        stats->warm_feasible = true;
        const double t_warm = std::max(opt.t0, m / opt.duality_tol * 1e-4);
        Result<int> nt = run_barrier(&y, t_warm);
        if (nt.ok()) return finish(y, *nt);
        stats->warm_feasible = false;
        stats->cold_restart = true;
        std::fill(y.begin(), y.end(), 0.0);
        POLYDAB_ASSIGN_OR_RETURN(y, PhaseOne(y, stats));
        POLYDAB_ASSIGN_OR_RETURN(int nt2, run_barrier(&y, opt.t0));
        return finish(y, nt2);
      }
      Result<Vector> feasible = PhaseOne(y, stats);
      if (!feasible.ok() && warm_start != nullptr) {
        stats->cold_restart = true;
        std::fill(y.begin(), y.end(), 0.0);
        feasible = PhaseOne(y, stats);
      }
      if (!feasible.ok()) return feasible.status();
      y = std::move(feasible).value();
    }
    POLYDAB_ASSIGN_OR_RETURN(int nt, run_barrier(&y, opt.t0));
    return finish(y, nt);
  }
};

/// Solve \p problem with the reference solver (comparing every Newton
/// system on the way) and with the production solver; the two solves
/// must agree in every bit.
void ExpectSameSolve(const GpProblem& problem, const Vector* warm,
                     KernelCheck* check, const std::string& label,
                     const SolverOptions& options = SolverOptions()) {
  SCOPED_TRACE(label);
  ConvexGp cg;
  internal::BuildConvexGp(problem, &cg);
  SolveStats want_stats;
  RefSolver ref{cg, options, check, {}};
  auto want = ref.Solve(problem, warm, &want_stats);
  SolveStats stats;
  internal::Workspace ws;
  auto got =
      internal::SolveConvexGp(problem, cg, options, warm, &stats, &ws);

  ASSERT_EQ(got.ok(), want.ok());
  if (got.ok()) {
    ASSERT_EQ(got->x.size(), want->x.size());
    for (size_t i = 0; i < got->x.size(); ++i) {
      EXPECT_TRUE(SameBits(got->x[i], want->x[i]))
          << "x[" << i << "]: " << got->x[i] << " vs " << want->x[i];
    }
    EXPECT_TRUE(SameBits(got->objective, want->objective));
    EXPECT_EQ(got->newton_iterations, want->newton_iterations);
  } else {
    EXPECT_EQ(got.status().code(), want.status().code());
  }
  EXPECT_EQ(stats.newton_iterations, want_stats.newton_iterations);
  EXPECT_EQ(stats.line_search_backtracks, want_stats.line_search_backtracks);
  EXPECT_EQ(stats.damped_stages, want_stats.damped_stages);
  EXPECT_EQ(stats.phase1, want_stats.phase1);
  EXPECT_EQ(stats.warm_feasible, want_stats.warm_feasible);
  EXPECT_EQ(stats.cold_restart, want_stats.cold_restart);
}

void ExpectNoMismatch(const KernelCheck& check) {
  EXPECT_EQ(check.mismatches(), 0) << "first: " << check.first_mismatch();
}

// ---------------------------------------------------------------------

TEST(NewtonKernelTest, RandomProgramSweepIsBitIdentical) {
  KernelCheck check;
  for (int p = 0; p < 200; ++p) {
    for (double mu : {1.0, 5.0, 20.0}) {
      const GpProblem gp = RandomProgram(1000 + static_cast<uint64_t>(p), mu);
      const std::string label =
          "p=" + std::to_string(p) + " mu=" + std::to_string(mu);
      ExpectSameSolve(gp, nullptr, &check, label + " cold");
      auto cold = SolveGp(gp);
      ASSERT_TRUE(cold.ok()) << label;
      // Interior (warm-trusted) and exterior (phase I from the warm
      // point) warm starts.
      for (double f : {0.9, 1.5}) {
        Vector warm = cold->x;
        for (double& w : warm) w *= f;
        ExpectSameSolve(gp, &warm, &check,
                        label + " warm x" + std::to_string(f));
      }
    }
  }
  ExpectNoMismatch(check);
  EXPECT_GT(check.systems(), 10000);
  EXPECT_GT(check.phase1_systems(), 0);
}

TEST(NewtonKernelTest, RobustnessProgramsAreBitIdentical) {
  // The solver-robustness regressions (solver_engine_test.cc): an
  // epsilon-interior warm point, clamped trust-region travel on a tight
  // stage budget, and a singular valley that needs the damped retry.
  KernelCheck check;
  {
    GpProblem gp;
    gp.num_vars = 2;
    gp.objective.AddTerm(1.0, {{0, -1.0}, {1, -1.0}});
    Posynomial c;
    c.AddTerm(1.0, {{0, 1.0}, {1, 1.0}});
    gp.constraints.push_back(std::move(c));
    const Vector warm = {1.0 - 1e-13, 1.0};
    ExpectSameSolve(gp, &warm, &check, "boundary warm point");
  }
  {
    GpProblem gp;
    gp.num_vars = 1;
    gp.objective.AddTerm(1.0, {{0, -1.0}});
    Posynomial cap;
    cap.AddTerm(1e-12, {{0, 1.0}});
    gp.constraints.push_back(std::move(cap));
    SolverOptions options;
    options.max_newton_per_stage = 6;
    ExpectSameSolve(gp, nullptr, &check, "clamped travel", options);
    // A one-step budget fails stages, so the damped retry runs.
    options.max_newton_per_stage = 1;
    ExpectSameSolve(gp, nullptr, &check, "one-step stages", options);
  }
  {
    GpProblem gp;
    gp.num_vars = 2;
    gp.objective.AddTerm(1.0, {{0, 1.0}, {1, 1.0}});
    gp.objective.AddTerm(1.0, {{0, -1.0}, {1, -1.0}});
    ExpectSameSolve(gp, nullptr, &check, "singular valley");
  }
  ExpectNoMismatch(check);
  EXPECT_GT(check.systems(), 0);
  EXPECT_GT(check.damped_steps(), 0);
}

/// A random PPQ over exactly \p k items: every item's own product term
/// (degree up to 4) plus an occasional linear term.
PolynomialQuery RandomPpq(int k, Rng* rng, Vector* values,
                                Vector* rates) {
  VariableRegistry reg;
  std::vector<VarId> ids;
  for (int i = 0; i < k; ++i) {
    ids.push_back(reg.Intern("v" + std::to_string(i)));
  }
  std::vector<Monomial> terms;
  for (int i = 0; i < k; ++i) {
    std::vector<std::pair<VarId, int>> powers{
        {ids[static_cast<size_t>(i)], static_cast<int>(rng->UniformInt(1, 2))}};
    if (k > 1) {
      int j = static_cast<int>(rng->UniformInt(0, k - 2));
      if (j >= i) ++j;
      powers.emplace_back(ids[static_cast<size_t>(j)],
                          static_cast<int>(rng->UniformInt(1, 2)));
    }
    terms.emplace_back(rng->Uniform(1.0, 100.0), std::move(powers));
    if (rng->Uniform(0.0, 1.0) < 0.3) {
      terms.emplace_back(
          rng->Uniform(1.0, 100.0),
          std::vector<std::pair<VarId, int>>{{ids[static_cast<size_t>(i)], 1}});
    }
  }
  PolynomialQuery q{0, Polynomial(std::move(terms)), 0.0};
  values->resize(reg.size());
  rates->resize(reg.size());
  for (size_t i = 0; i < reg.size(); ++i) {
    (*values)[i] = rng->Uniform(5.0, 100.0);
    (*rates)[i] = rng->Uniform(0.05, 2.0);
  }
  q.qab = 0.01 * q.p.Evaluate(*values);
  return q;
}

/// Each value moved past the given widths, up or down at random.
Vector MovePast(const Vector& values, const std::vector<VarId>& vars,
                const Vector& widths, Rng* rng) {
  Vector moved = values;
  for (size_t i = 0; i < vars.size(); ++i) {
    const size_t v = static_cast<size_t>(vars[i]);
    const double step = widths[i] * rng->Uniform(1.05, 2.0);
    const bool down =
        rng->Uniform(0.0, 1.0) < 0.5 && values[v] - step > 0.1 * values[v];
    moved[v] = down ? values[v] - step : values[v] + step;
  }
  return moved;
}

const core::DataDynamicsModel kModels[] = {
    core::DataDynamicsModel::kMonotonic, core::DataDynamicsModel::kRandomWalk};

/// For each program: the cold solve, the re-solve after the values moved
/// from the repaired previous plan (warm-trusted), from the unrepaired
/// plan (phase I from the warm point) and from a point at 1e300 (phase I
/// retried from the origin when it strands).
TEST(NewtonKernelTest, DualDabProgramsAreBitIdentical) {
  KernelCheck check;
  for (int k = 1; k <= 20; ++k) {
    for (core::DataDynamicsModel ddm : kModels) {
      Rng rng(static_cast<uint64_t>(100 + k));
      Vector values, rates;
      const PolynomialQuery q = RandomPpq(k, &rng, &values, &rates);
      core::DualDabParams params;
      params.mu = rng.Uniform(1.0, 20.0);
      params.ddm = ddm;
      const std::string label = "k=" + std::to_string(k) + " ddm=" +
                                std::to_string(static_cast<int>(ddm));
      auto gp = core::DualDabGp(q, values, rates, params);
      ASSERT_TRUE(gp.ok()) << label;
      ExpectSameSolve(*gp, nullptr, &check, label + " cold");
      auto prev = SolveGp(*gp);
      ASSERT_TRUE(prev.ok()) << label;

      const core::GpVarMap map{q.p.Variables(), /*has_secondary=*/true};
      const size_t n = map.vars.size();
      const Vector secondary(prev->x.begin() + static_cast<long>(n),
                             prev->x.begin() + static_cast<long>(2 * n));
      const Vector moved = MovePast(values, map.vars, secondary, &rng);
      auto gp2 = core::DualDabGp(q, moved, rates, params);
      ASSERT_TRUE(gp2.ok()) << label;
      Vector repaired = prev->x;
      core::RepairWarmStart(gp2->constraints.front(), map, ddm, rates,
                            &repaired);
      ExpectSameSolve(*gp2, &repaired, &check, label + " repaired");
      ExpectSameSolve(*gp2, &prev->x, &check, label + " unrepaired");
      Vector far(2 * n, 1e300);
      far.push_back(prev->x.back());
      ExpectSameSolve(*gp2, &far, &check, label + " far");
    }
  }
  ExpectNoMismatch(check);
  EXPECT_GT(check.systems(), 1000);
  EXPECT_GT(check.phase1_systems(), 0);
}

TEST(NewtonKernelTest, RefreshOptimalProgramsAreBitIdentical) {
  KernelCheck check;
  for (int k = 1; k <= 20; ++k) {
    for (core::DataDynamicsModel ddm : kModels) {
      Rng rng(static_cast<uint64_t>(200 + k));
      Vector values, rates;
      const PolynomialQuery q = RandomPpq(k, &rng, &values, &rates);
      const std::string label = "k=" + std::to_string(k) + " ddm=" +
                                std::to_string(static_cast<int>(ddm));
      auto gp = core::OptimalRefreshGp(q, values, rates, ddm);
      ASSERT_TRUE(gp.ok()) << label;
      ExpectSameSolve(*gp, nullptr, &check, label + " cold");
      auto prev = SolveGp(*gp);
      ASSERT_TRUE(prev.ok()) << label;

      const core::GpVarMap map{q.p.Variables(), /*has_secondary=*/false};
      const Vector moved = MovePast(values, map.vars, prev->x, &rng);
      auto gp2 = core::OptimalRefreshGp(q, moved, rates, ddm);
      ASSERT_TRUE(gp2.ok()) << label;
      Vector repaired = prev->x;
      core::RepairWarmStart(gp2->constraints.front(), map, ddm, rates,
                            &repaired);
      ExpectSameSolve(*gp2, &repaired, &check, label + " repaired");
      ExpectSameSolve(*gp2, &prev->x, &check, label + " unrepaired");
      const Vector far(map.vars.size(), 1e300);
      ExpectSameSolve(*gp2, &far, &check, label + " far");
    }
  }
  ExpectNoMismatch(check);
  EXPECT_GT(check.systems(), 1000);
  EXPECT_GT(check.phase1_systems(), 0);
}

}  // namespace
}  // namespace polydab::gp
