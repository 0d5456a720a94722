#ifndef POLYDAB_CORE_CONDITION_H_
#define POLYDAB_CORE_CONDITION_H_

#include <vector>

#include "common/status.h"
#include "core/ddm.h"
#include "core/query.h"
#include "gp/posynomial.h"

/// \file condition.h
/// Builders for the necessary-and-sufficient DAB correctness conditions of
/// §III-A, generalized from the paper's worked product examples to any
/// positive-coefficient polynomial with non-negative integer exponents over
/// positive data.
///
/// Single-DAB condition (generalizes Eq. (1)):
///     P(V + b) − P(V) ≤ B
/// Dual-DAB condition (generalizes Eq. (2); Eq. (3) is implied):
///     P(V + c + b) − P(V + c) ≤ B
///
/// Because P has positive coefficients and is monotone over positive data,
/// the worst simultaneous drift is every item at the top of its range, so
/// these single inequalities are exact. Multinomial expansion of the left
/// side keeps only terms containing at least one b factor (the b-free terms
/// cancel), and every surviving term has a positive coefficient — i.e. the
/// condition is a posynomial inequality, which is what lets the paper use
/// geometric programming.

namespace polydab::core {

/// \brief Mapping between data items of one GP and contiguous GP variable
/// indices. Layout: b_0..b_{k-1}, then (if dual) c_0..c_{k-1}, extra
/// variables (e.g. R) after that.
struct GpVarMap {
  std::vector<VarId> vars;  ///< query vars, sorted
  bool has_secondary = false;

  int NumVars() const {
    return static_cast<int>(vars.size()) * (has_secondary ? 2 : 1);
  }
  int BIndex(size_t i) const { return static_cast<int>(i); }
  int CIndex(size_t i) const {
    return static_cast<int>(vars.size() + i);
  }
};

/// \brief Expand P(V+b) − P(V) as a posynomial in the b variables, divided
/// by \p qab so the GP constraint reads "≤ 1".
///
/// Requires: positive-coefficient P, integer exponents ≥ 0, V > 0 for every
/// query variable, qab > 0.
Result<gp::Posynomial> SingleDabCondition(const Polynomial& p,
                                          const Vector& values, double qab,
                                          const GpVarMap& map);

/// \brief Expand P(V+c+b) − P(V+c) as a posynomial in (b, c), divided by
/// \p qab. Same requirements as SingleDabCondition; \p map must have
/// has_secondary = true.
Result<gp::Posynomial> DualDabCondition(const Polynomial& p,
                                        const Vector& values, double qab,
                                        const GpVarMap& map);

/// \brief Warm-start repair (docs/SOLVER.md): pull a previous plan \p x,
/// packed per \p map (b, then c and R = x[map.NumVars()] when
/// map.has_secondary), strictly inside the program whose validity
/// condition is \p cond, so the solve skips phase I. Every constraint ends
/// up cleared by δ = gp::kInteriorMargin in log space:
///   1. Dual-DAB: clamp b_i <= c_i·e^{-δ}.
///   2. If g = cond(x) > e^{-δ}, scale b (and c) by s = e^{-δ}/g. Every
///      term of cond has b-degree >= 1 and no negative exponent, so for
///      s <= 1 the condition drops to at most s·g = e^{-δ}; b/c is kept.
///   3. Dual-DAB: raise R until every rate(λ_i, c_i)/R <= e^{-δ}, with
///      λ from \p rates (dense, by VarId) under \p ddm.
/// Returns false and leaves \p x untouched when g is not finite or the
/// repaired point would not be finite and positive; phase I then stays
/// the fallback.
bool RepairWarmStart(const gp::Posynomial& cond, const GpVarMap& map,
                     DataDynamicsModel ddm, const Vector& rates, Vector* x);

/// Validate that \p p is usable by the condition builders (positive
/// coefficients, values positive on its variables, positive qab).
Status CheckConditionInputs(const Polynomial& p, const Vector& values,
                            double qab);

}  // namespace polydab::core

#endif  // POLYDAB_CORE_CONDITION_H_
