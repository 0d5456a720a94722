#include "core/dual_dab.h"

namespace polydab::core {

Result<gp::GpProblem> DualDabGp(const PolynomialQuery& query,
                                const Vector& values, const Vector& rates,
                                const DualDabParams& params) {
  if (params.mu <= 0.0) {
    return Status::InvalidArgument("mu must be positive");
  }
  GpVarMap map;
  map.vars = query.p.Variables();
  map.has_secondary = true;
  const size_t k = map.vars.size();
  if (k == 0) {
    return Status::InvalidArgument("query has no variables");
  }
  const int r_index = static_cast<int>(2 * k);  // R after b's and c's

  gp::GpProblem gp_problem;
  gp_problem.num_vars = static_cast<int>(2 * k + 1);

  // Objective: refresh stream + mu * recompute stream.
  for (size_t i = 0; i < k; ++i) {
    AddRateTerm(params.ddm, rates[static_cast<size_t>(map.vars[i])],
                map.BIndex(i), &gp_problem.objective);
  }
  gp_problem.objective.AddTerm(params.mu, {{r_index, 1.0}});
  // Vanishing cost on secondary widths. A data item that only appears
  // linearly cancels out of the validity condition, leaving its c with no
  // upper pressure at all — the GP would be unbounded along that ray.
  // epsilon * c_i / V_i pins such ranges at a finite value and perturbs
  // every other solution by a negligible (1e-6 relative) amount.
  for (size_t i = 0; i < k; ++i) {
    gp_problem.objective.AddTerm(
        1e-6 / values[static_cast<size_t>(map.vars[i])],
        {{map.CIndex(i), 1.0}});
  }

  // Validity condition over the secondary range.
  POLYDAB_ASSIGN_OR_RETURN(
      gp::Posynomial cond,
      DualDabCondition(query.p, values, query.qab, map));
  gp_problem.constraints.push_back(std::move(cond));

  // b_i / c_i <= 1 and rate(lambda_i, c_i) <= R.
  for (size_t i = 0; i < k; ++i) {
    gp::Posynomial bc;
    bc.AddTerm(1.0, {{map.BIndex(i), 1.0}, {map.CIndex(i), -1.0}});
    gp_problem.constraints.push_back(std::move(bc));

    gp::Posynomial rec;
    AddRecomputeBound(params.ddm, rates[static_cast<size_t>(map.vars[i])],
                      map.CIndex(i), r_index, &rec);
    gp_problem.constraints.push_back(std::move(rec));
  }
  return gp_problem;
}

namespace {

/// The assembled GP of one Dual-DAB solve: Build performs the assembly
/// before the solve, Extract the read-out after it.
struct DualDabProgram {
  gp::GpProblem gp;
  GpVarMap map;
  Vector warm_x;          ///< packed (b, c, R) warm point, repaired
  bool has_warm = false;  ///< warm point accepted (vars match, R > 0)
};

Result<DualDabProgram> BuildDualDabProgram(const PolynomialQuery& query,
                                           const Vector& values,
                                           const Vector& rates,
                                           const DualDabParams& params,
                                           const QueryDabs* warm) {
  DualDabProgram prog;
  POLYDAB_ASSIGN_OR_RETURN(prog.gp, DualDabGp(query, values, rates, params));
  GpVarMap& map = prog.map;
  map.vars = query.p.Variables();
  map.has_secondary = true;
  const size_t k = map.vars.size();
  if (warm != nullptr && warm->vars == map.vars &&
      warm->recompute_rate > 0.0) {
    prog.warm_x.reserve(2 * k + 1);
    prog.warm_x.insert(prog.warm_x.end(), warm->primary.begin(),
                       warm->primary.end());
    prog.warm_x.insert(prog.warm_x.end(), warm->secondary.begin(),
                       warm->secondary.end());
    prog.warm_x.push_back(warm->recompute_rate);
    prog.has_warm = true;
    RepairWarmStart(prog.gp.constraints.front(), map, params.ddm, rates,
                    &prog.warm_x);
  }
  return prog;
}

QueryDabs ExtractDualDab(const DualDabProgram& prog,
                         const gp::GpSolution& sol) {
  const size_t k = prog.map.vars.size();
  const int r_index = static_cast<int>(2 * k);
  QueryDabs out;
  out.vars = prog.map.vars;
  out.primary.assign(sol.x.begin(), sol.x.begin() + static_cast<long>(k));
  out.secondary.assign(sol.x.begin() + static_cast<long>(k),
                       sol.x.begin() + static_cast<long>(2 * k));
  out.recompute_rate = sol.x[static_cast<size_t>(r_index)];
  // Numerical safety: the GP solves b <= c to tolerance; enforce exactly so
  // downstream validity checks (c >= b) never fail by round-off.
  for (size_t i = 0; i < k; ++i) {
    if (out.secondary[i] < out.primary[i]) {
      out.secondary[i] = out.primary[i];
    }
  }
  return out;
}

}  // namespace

Result<QueryDabs> SolveDualDab(const PolynomialQuery& query,
                               const Vector& values, const Vector& rates,
                               const DualDabParams& params,
                               const QueryDabs* warm) {
  POLYDAB_ASSIGN_OR_RETURN(
      DualDabProgram prog,
      BuildDualDabProgram(query, values, rates, params, warm));
  POLYDAB_ASSIGN_OR_RETURN(
      gp::GpSolution sol,
      SolveGp(prog.gp, params.solver,
              prog.has_warm ? &prog.warm_x : nullptr));
  return ExtractDualDab(prog, sol);
}

}  // namespace polydab::core
