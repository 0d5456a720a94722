#include "core/condition.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "gp/gp_solver.h"

namespace polydab::core {

namespace {

/// A partially expanded symbolic term: numeric coefficient (absorbing data
/// values and multinomial factors) times a power product of GP variables.
struct SymTerm {
  double coef;
  std::vector<std::pair<int, double>> exps;  // (gp var, exponent)
  int b_degree;                              // total degree in b variables
};

double Multinomial(int n, int k1, int k2) {
  // n! / (k1! k2! (n-k1-k2)!) for small n (query degrees are small).
  auto fact = [](int m) {
    double f = 1.0;
    for (int i = 2; i <= m; ++i) f *= i;
    return f;
  };
  return fact(n) / (fact(k1) * fact(k2) * fact(n - k1 - k2));
}

/// Expansion of one factor (V + b)^e or (V + c + b)^e into SymTerms.
std::vector<SymTerm> ExpandFactor(double value, int exp, int b_index,
                                  int c_index /* -1 for single-DAB */) {
  std::vector<SymTerm> out;
  for (int kb = 0; kb <= exp; ++kb) {
    const int kc_max = (c_index >= 0) ? exp - kb : 0;
    for (int kc = 0; kc <= kc_max; ++kc) {
      const int kv = exp - kb - kc;
      SymTerm t;
      t.coef = Multinomial(exp, kb, kc) * std::pow(value, kv);
      if (kb > 0) t.exps.emplace_back(b_index, static_cast<double>(kb));
      if (kc > 0) t.exps.emplace_back(c_index, static_cast<double>(kc));
      t.b_degree = kb;
      out.push_back(std::move(t));
    }
  }
  return out;
}

std::vector<SymTerm> Convolve(const std::vector<SymTerm>& a,
                              const std::vector<SymTerm>& b) {
  std::vector<SymTerm> out;
  out.reserve(a.size() * b.size());
  for (const SymTerm& x : a) {
    for (const SymTerm& y : b) {
      SymTerm t;
      t.coef = x.coef * y.coef;
      t.exps = x.exps;
      t.exps.insert(t.exps.end(), y.exps.begin(), y.exps.end());
      t.b_degree = x.b_degree + y.b_degree;
      out.push_back(std::move(t));
    }
  }
  return out;
}

Result<gp::Posynomial> BuildCondition(const Polynomial& p,
                                      const Vector& values, double qab,
                                      const GpVarMap& map, bool dual) {
  POLYDAB_RETURN_NOT_OK(CheckConditionInputs(p, values, qab));
  if (dual) POLYDAB_CHECK(map.has_secondary);

  auto index_of = [&map](VarId v) -> int {
    for (size_t i = 0; i < map.vars.size(); ++i) {
      if (map.vars[i] == v) return static_cast<int>(i);
    }
    return -1;
  };

  gp::Posynomial cond;
  for (const Monomial& mono : p.terms()) {
    std::vector<SymTerm> acc = {{1.0, {}, 0}};
    for (const auto& [var, exp] : mono.powers()) {
      const int i = index_of(var);
      if (i < 0) {
        return Status::InvalidArgument(
            "query variable missing from GP variable map");
      }
      const double v = values[static_cast<size_t>(var)];
      acc = Convolve(acc, ExpandFactor(v, exp, map.BIndex(i),
                                       dual ? map.CIndex(i) : -1));
    }
    // Keep only the terms with at least one b factor: the b-free terms are
    // exactly P(V+c) (resp. P(V)) and cancel in the difference.
    for (SymTerm& t : acc) {
      if (t.b_degree == 0) continue;
      cond.AddTerm(mono.coef() * t.coef / qab, std::move(t.exps));
    }
  }
  if (cond.empty()) {
    return Status::InvalidArgument(
        "query polynomial has no variable terms; nothing to bound");
  }
  return cond;
}

}  // namespace

Status CheckConditionInputs(const Polynomial& p, const Vector& values,
                            double qab) {
  if (qab <= 0.0) {
    return Status::InvalidArgument("QAB must be positive");
  }
  if (!p.IsPositiveCoefficient()) {
    return Status::InvalidArgument(
        "condition builders require a positive-coefficient polynomial; "
        "split general queries first (SplitSigns / heuristics)");
  }
  for (VarId v : p.Variables()) {
    if (static_cast<size_t>(v) >= values.size()) {
      return Status::InvalidArgument("values vector too short for query");
    }
    if (!(values[static_cast<size_t>(v)] > 0.0)) {
      return Status::InvalidArgument(
          "data values must be positive for the monotone worst-case "
          "condition to be exact");
    }
  }
  return Status::OK();
}

bool RepairWarmStart(const gp::Posynomial& cond, const GpVarMap& map,
                     DataDynamicsModel ddm, const Vector& rates, Vector* x) {
  const size_t k = map.vars.size();
  const double inside = std::exp(-gp::kInteriorMargin);
  Vector y = *x;
  if (map.has_secondary) {
    for (size_t i = 0; i < k; ++i) {
      y[i] = std::min(y[i], y[k + i] * inside);
    }
  }
  const double g = cond.Evaluate(y);
  if (!std::isfinite(g)) return false;
  if (g > inside) {
    const double s = inside / g;
    for (size_t j = 0; j < static_cast<size_t>(map.NumVars()); ++j) {
      y[j] *= s;
    }
  }
  if (map.has_secondary) {
    double& r = y[2 * k];
    for (size_t i = 0; i < k; ++i) {
      r = std::max(r, MessageRate(ddm, rates[static_cast<size_t>(map.vars[i])],
                                  y[k + i]) /
                          inside);
    }
  }
  for (double v : y) {
    if (!(v > 0.0) || !std::isfinite(v)) return false;
  }
  *x = std::move(y);
  return true;
}

Result<gp::Posynomial> SingleDabCondition(const Polynomial& p,
                                          const Vector& values, double qab,
                                          const GpVarMap& map) {
  return BuildCondition(p, values, qab, map, /*dual=*/false);
}

Result<gp::Posynomial> DualDabCondition(const Polynomial& p,
                                        const Vector& values, double qab,
                                        const GpVarMap& map) {
  return BuildCondition(p, values, qab, map, /*dual=*/true);
}

}  // namespace polydab::core
