#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/optimal_refresh.h"
#include "obs/metrics.h"

namespace polydab::core {
namespace {

class OptimalRefreshTest : public ::testing::Test {
 protected:
  VariableRegistry reg_;
  VarId x_ = reg_.Intern("x");
  VarId y_ = reg_.Intern("y");

  PolynomialQuery Q(const std::string& s, double qab) {
    auto r = Polynomial::Parse(s, &reg_);
    EXPECT_TRUE(r.ok());
    return PolynomialQuery{0, *r, qab};
  }
};

TEST_F(OptimalRefreshTest, PaperFigure2Assignment) {
  // Q = xy : 5 at V=(2,2), equal rates: the symmetric optimum satisfies
  // 2b + 2b + b^2 = 5 -> b = 1, exactly the assignment in Figure 2.
  auto dabs = SolveOptimalRefresh(Q("x*y", 5.0), {2.0, 2.0}, {1.0, 1.0});
  ASSERT_TRUE(dabs.ok()) << dabs.status().ToString();
  EXPECT_NEAR(dabs->primary[0], 1.0, 1e-4);
  EXPECT_NEAR(dabs->primary[1], 1.0, 1e-4);
  // Single-DAB semantics: secondary equals primary.
  EXPECT_EQ(dabs->primary, dabs->secondary);
  // Every refresh recomputes: modeled rate = lambda/b + lambda/b = 2.
  EXPECT_NEAR(dabs->recompute_rate, 2.0, 1e-3);
}

TEST_F(OptimalRefreshTest, ConditionIsTightAtOptimum) {
  // The refresh-minimal solution always sits on the QAB boundary.
  Vector values = {40.0, 20.0};
  auto dabs = SolveOptimalRefresh(Q("x*y", 50.0), values, {1.0, 1.0});
  ASSERT_TRUE(dabs.ok());
  Vector shifted = values;
  shifted[0] += dabs->primary[0];
  shifted[1] += dabs->primary[1];
  const double drift = shifted[0] * shifted[1] - values[0] * values[1];
  EXPECT_NEAR(drift, 50.0, 50.0 * 1e-4);
}

TEST_F(OptimalRefreshTest, FasterItemGetsWiderBound) {
  // With lambda_x >> lambda_y, x's refreshes dominate the objective, so the
  // optimizer widens b_x at the expense of b_y.
  auto dabs =
      SolveOptimalRefresh(Q("x*y", 5.0), {2.0, 2.0}, {10.0, 0.1});
  ASSERT_TRUE(dabs.ok());
  EXPECT_GT(dabs->primary[0], dabs->primary[1]);
}

TEST_F(OptimalRefreshTest, MatchesBruteForceGrid) {
  // 2-variable problem small enough to verify against a dense grid search.
  Vector values = {3.0, 7.0};
  Vector rates = {2.0, 5.0};
  const double qab = 4.0;
  auto dabs = SolveOptimalRefresh(Q("x*y", qab), values, rates);
  ASSERT_TRUE(dabs.ok());
  const double opt = rates[0] / dabs->primary[0] + rates[1] / dabs->primary[1];

  double best = 1e300;
  for (int i = 1; i <= 400; ++i) {
    const double bx = 2.0 * i / 400.0;
    // Solve the boundary for by: Vy*bx + (Vx + bx)*by = qab.
    const double rem = qab - values[1] * bx;
    if (rem <= 0) continue;
    const double by = rem / (values[0] + bx);
    best = std::min(best, rates[0] / bx + rates[1] / by);
  }
  EXPECT_NEAR(opt, best, best * 1e-3);
  EXPECT_LE(opt, best + best * 1e-4);  // GP must not be worse than grid
}

TEST_F(OptimalRefreshTest, RandomWalkModelGivesWiderBounds) {
  // lambda^2/b^2 penalizes small b harder than lambda/b when the binding
  // constraint is shared, and the paper observed *less stringent* DABs for
  // the random-walk model (§V-B.1). Check the objective model switches.
  Vector values = {2.0, 8.0};
  Vector rates = {1.0, 1.0};
  auto mono = SolveOptimalRefresh(Q("x*y", 5.0), values, rates,
                                  DataDynamicsModel::kMonotonic);
  auto walk = SolveOptimalRefresh(Q("x*y", 5.0), values, rates,
                                  DataDynamicsModel::kRandomWalk);
  ASSERT_TRUE(mono.ok());
  ASSERT_TRUE(walk.ok());
  // Both sit on the same boundary but at different points; the random walk
  // solution equalizes b^2-weighted rates, pushing toward balance.
  Vector shifted = values;
  shifted[0] += walk->primary[0];
  shifted[1] += walk->primary[1];
  EXPECT_NEAR(shifted[0] * shifted[1] - 16.0, 5.0, 5e-3);
  EXPECT_NE(std::abs(mono->primary[0] - walk->primary[0]) < 1e-6 &&
                std::abs(mono->primary[1] - walk->primary[1]) < 1e-6,
            true);
}

TEST_F(OptimalRefreshTest, WarmStartAgrees) {
  Vector values = {5.0, 9.0};
  auto cold = SolveOptimalRefresh(Q("2*x*y + x^2", 3.0), values, {1.0, 2.0});
  ASSERT_TRUE(cold.ok());
  auto warm = SolveOptimalRefresh(Q("2*x*y + x^2", 3.0), values, {1.0, 2.0},
                                  DataDynamicsModel::kMonotonic,
                                  gp::SolverOptions(), &*cold);
  ASSERT_TRUE(warm.ok());
  EXPECT_NEAR(warm->primary[0], cold->primary[0], 1e-5);
  EXPECT_NEAR(warm->primary[1], cold->primary[1], 1e-5);
}

TEST_F(OptimalRefreshTest, RejectsGeneralPolynomial) {
  auto dabs = SolveOptimalRefresh(Q("x*y - x", 1.0), {2.0, 2.0}, {1.0, 1.0});
  EXPECT_FALSE(dabs.ok());
}

TEST_F(OptimalRefreshTest, RejectsConstantQuery) {
  auto dabs = SolveOptimalRefresh(Q("5", 1.0), {}, {});
  EXPECT_FALSE(dabs.ok());
}

// Property sweep: for random degree-2 PPQs, the solution is feasible and
// boundary-tight.
class OptimalRefreshProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimalRefreshProperty, FeasibleAndTight) {
  Rng rng(GetParam());
  VariableRegistry reg;
  const int n = 2 + static_cast<int>(rng.UniformInt(0, 4));
  std::vector<VarId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(reg.Intern("v" + std::to_string(i)));
  std::vector<Monomial> terms;
  const int t = 1 + static_cast<int>(rng.UniformInt(0, 3));
  for (int j = 0; j < t; ++j) {
    VarId a = ids[static_cast<size_t>(rng.UniformInt(0, n - 1))];
    VarId b = ids[static_cast<size_t>(rng.UniformInt(0, n - 1))];
    terms.emplace_back(rng.Uniform(1.0, 100.0),
                       std::vector<std::pair<VarId, int>>{{a, 1}, {b, 1}});
  }
  PolynomialQuery q{0, Polynomial(std::move(terms)), 0.0};
  Vector values(reg.size()), rates(reg.size());
  for (size_t i = 0; i < reg.size(); ++i) {
    values[i] = rng.Uniform(5.0, 100.0);
    rates[i] = rng.Uniform(0.1, 3.0);
  }
  q.qab = 0.01 * q.p.Evaluate(values);  // 1% of initial value, as in §V-A

  auto dabs = SolveOptimalRefresh(q, values, rates);
  ASSERT_TRUE(dabs.ok()) << dabs.status().ToString();
  Vector shifted = values;
  for (size_t i = 0; i < dabs->vars.size(); ++i) {
    EXPECT_GT(dabs->primary[i], 0.0);
    shifted[static_cast<size_t>(dabs->vars[i])] += dabs->primary[i];
  }
  const double drift = q.p.Evaluate(shifted) - q.p.Evaluate(values);
  EXPECT_LE(drift, q.qab * (1.0 + 1e-4));
  EXPECT_GE(drift, q.qab * (1.0 - 1e-2));  // boundary-tight
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalRefreshProperty,
                         ::testing::Range<uint64_t>(1, 13));

// Warm-start repair (RepairWarmStart, docs/SOLVER.md) for the single-DAB
// program: every refresh leaves the validity range [V - b, V + b], so the
// previous plan must be scaled back inside in closed form, after which
// the solve skips phase I and reaches the cold optimum; a point the
// repair cannot evaluate reaches the solver untouched.
struct RepairCase {
  uint64_t seed;
  DataDynamicsModel ddm;
};

void PrintTo(const RepairCase& c, std::ostream* os) {
  *os << "seed " << c.seed
      << (c.ddm == DataDynamicsModel::kMonotonic ? " monotonic"
                                                 : " random-walk");
}

class OptimalRefreshRepairProperty
    : public ::testing::TestWithParam<RepairCase> {};

TEST_P(OptimalRefreshRepairProperty, RepairedWarmStartSkipsPhaseOne) {
  const auto [seed, ddm] = GetParam();
  Rng rng(seed);
  VariableRegistry reg;
  const int n = 2 + static_cast<int>(rng.UniformInt(0, 4));
  std::vector<VarId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(reg.Intern("v" + std::to_string(i)));
  // Products of up to degree 4 (the first term always one, so b·b terms
  // exist), plus an occasional linear term.
  std::vector<Monomial> terms;
  const int t = 1 + static_cast<int>(rng.UniformInt(0, 3));
  for (int j = 0; j < t; ++j) {
    VarId a = ids[static_cast<size_t>(rng.UniformInt(0, n - 1))];
    VarId b = ids[static_cast<size_t>(rng.UniformInt(0, n - 1))];
    terms.emplace_back(
        rng.Uniform(1.0, 100.0),
        std::vector<std::pair<VarId, int>>{
            {a, static_cast<int>(rng.UniformInt(1, 2))},
            {b, static_cast<int>(rng.UniformInt(1, 2))}});
    if (j > 0 && rng.Uniform(0.0, 1.0) < 0.3) {
      terms.emplace_back(rng.Uniform(1.0, 100.0),
                         std::vector<std::pair<VarId, int>>{{a, 1}});
    }
  }
  PolynomialQuery q{0, Polynomial(std::move(terms)), 0.0};
  Vector values(reg.size()), rates(reg.size());
  for (size_t i = 0; i < reg.size(); ++i) {
    values[i] = rng.Uniform(5.0, 100.0);
    rates[i] = rng.Uniform(0.1, 3.0);
  }
  q.qab = 0.01 * q.p.Evaluate(values);
  auto prev = SolveOptimalRefresh(q, values, rates, ddm);
  ASSERT_TRUE(prev.ok()) << prev.status().ToString();
  const GpVarMap map{prev->vars, /*has_secondary=*/false};
  const size_t k = prev->vars.size();

  // direction +1: every item past V + b; -1: past V - b (where that keeps
  // the value positive); 0: mixed.
  for (int direction : {+1, -1, 0}) {
    SCOPED_TRACE("direction " + std::to_string(direction));
    Vector moved = values;
    for (size_t i = 0; i < k; ++i) {
      const size_t v = static_cast<size_t>(prev->vars[i]);
      const double step = prev->primary[i] * rng.Uniform(1.05, 2.0);
      const bool down =
          (direction < 0 || (direction == 0 && rng.Uniform(0.0, 1.0) < 0.5)) &&
          values[v] - step > 0.1 * values[v];
      moved[v] = down ? values[v] - step : values[v] + step;
    }

    // 1. The repaired point clears the condition by >= δ/2 (log space).
    auto cond = SingleDabCondition(q.p, moved, q.qab, map);
    ASSERT_TRUE(cond.ok());
    Vector x = prev->primary;
    ASSERT_TRUE(RepairWarmStart(*cond, map, ddm, rates, &x));
    EXPECT_LE(std::log(cond->Evaluate(x)), -gp::kInteriorMargin / 2.0);

    // 2. The warm solve takes no phase I.
    obs::MetricRegistry registry;
    gp::SolverOptions traced;
    traced.registry = &registry;
    auto warm = SolveOptimalRefresh(q, moved, rates, ddm, traced, &*prev);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(registry.GetCounter("gp.solver.phase1_solves")->value(), 0);
    EXPECT_EQ(registry.GetCounter("gp.solver.warm_start_feasible")->value(), 1);

    // 3. It reaches the cold optimum; the GP objective Σ rate(λ_i, b_i)
    // is the reported recompute rate.
    auto cold = SolveOptimalRefresh(q, moved, rates, ddm);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_NEAR(warm->recompute_rate, cold->recompute_rate,
                1e-6 * cold->recompute_rate);
  }

  // 4. A point whose condition overflows is left untouched: phase I
  // stays the fallback.
  auto cond = SingleDabCondition(q.p, values, q.qab, map);
  ASSERT_TRUE(cond.ok());
  Vector x(k, 1e300);
  const Vector before = x;
  EXPECT_FALSE(std::isfinite(cond->Evaluate(x)));
  EXPECT_FALSE(RepairWarmStart(*cond, map, ddm, rates, &x));
  EXPECT_EQ(x, before);

  // 5. Solving from that point still reaches the cold optimum. Where
  // phase I strands from it, the solver retries phase I from the origin,
  // which is exactly the cold solve.
  QueryDabs far = *prev;
  far.primary = x;
  obs::MetricRegistry registry;
  gp::SolverOptions traced;
  traced.registry = &registry;
  auto solved = SolveOptimalRefresh(q, values, rates, ddm, traced, &far);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  auto cold = SolveOptimalRefresh(q, values, rates, ddm);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_NEAR(solved->recompute_rate, cold->recompute_rate,
              1e-6 * cold->recompute_rate);
  if (registry.GetCounter("gp.solver.cold_restarts")->value() == 1) {
    EXPECT_EQ(solved->primary, cold->primary);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModels, OptimalRefreshRepairProperty,
    ::testing::Values(RepairCase{1, DataDynamicsModel::kMonotonic},
                      RepairCase{2, DataDynamicsModel::kMonotonic},
                      RepairCase{3, DataDynamicsModel::kMonotonic},
                      RepairCase{4, DataDynamicsModel::kMonotonic},
                      RepairCase{5, DataDynamicsModel::kMonotonic},
                      RepairCase{6, DataDynamicsModel::kRandomWalk},
                      RepairCase{7, DataDynamicsModel::kRandomWalk},
                      RepairCase{8, DataDynamicsModel::kRandomWalk},
                      RepairCase{9, DataDynamicsModel::kRandomWalk},
                      RepairCase{10, DataDynamicsModel::kRandomWalk}));

}  // namespace
}  // namespace polydab::core
