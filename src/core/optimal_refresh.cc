#include "core/optimal_refresh.h"

namespace polydab::core {

Result<gp::GpProblem> OptimalRefreshGp(const PolynomialQuery& query,
                                       const Vector& values,
                                       const Vector& rates,
                                       DataDynamicsModel ddm) {
  GpVarMap map;
  map.vars = query.p.Variables();
  map.has_secondary = false;
  const size_t k = map.vars.size();
  if (k == 0) {
    return Status::InvalidArgument("query has no variables");
  }

  gp::GpProblem gp_problem;
  gp_problem.num_vars = static_cast<int>(k);
  for (size_t i = 0; i < k; ++i) {
    AddRateTerm(ddm, rates[static_cast<size_t>(map.vars[i])],
                map.BIndex(i), &gp_problem.objective);
  }
  POLYDAB_ASSIGN_OR_RETURN(
      gp::Posynomial cond,
      SingleDabCondition(query.p, values, query.qab, map));
  gp_problem.constraints.push_back(std::move(cond));
  return gp_problem;
}

namespace {

/// The assembled GP of one refresh-optimal solve: Build performs the
/// assembly before the solve, Extract the read-out after it.
struct OptimalRefreshProgram {
  gp::GpProblem gp;
  GpVarMap map;
  Vector warm_x;          ///< previous primary DABs, repaired
  bool has_warm = false;  ///< warm point accepted (vars match)
  DataDynamicsModel ddm = DataDynamicsModel::kMonotonic;
};

Result<OptimalRefreshProgram> BuildOptimalRefreshProgram(
    const PolynomialQuery& query, const Vector& values, const Vector& rates,
    DataDynamicsModel ddm, const QueryDabs* warm) {
  OptimalRefreshProgram prog;
  POLYDAB_ASSIGN_OR_RETURN(prog.gp,
                           OptimalRefreshGp(query, values, rates, ddm));
  prog.ddm = ddm;
  GpVarMap& map = prog.map;
  map.vars = query.p.Variables();
  map.has_secondary = false;
  if (warm != nullptr && warm->vars == map.vars) {
    prog.warm_x = warm->primary;
    prog.has_warm = true;
    RepairWarmStart(prog.gp.constraints.front(), map, ddm, rates,
                    &prog.warm_x);
  }
  return prog;
}

QueryDabs ExtractOptimalRefresh(const OptimalRefreshProgram& prog,
                                const Vector& rates,
                                const gp::GpSolution& sol) {
  const size_t k = prog.map.vars.size();
  QueryDabs out;
  out.vars = prog.map.vars;
  out.primary = sol.x;
  out.secondary = sol.x;  // mirrors primary; see single_dab below
  out.single_dab = true;
  // Every refresh triggers a recomputation, so the modeled recompute rate
  // is the total refresh rate.
  double total = 0.0;
  for (size_t i = 0; i < k; ++i) {
    total += MessageRate(prog.ddm, rates[static_cast<size_t>(prog.map.vars[i])],
                         sol.x[i]);
  }
  out.recompute_rate = total;
  return out;
}

}  // namespace

Result<QueryDabs> SolveOptimalRefresh(const PolynomialQuery& query,
                                      const Vector& values,
                                      const Vector& rates,
                                      DataDynamicsModel ddm,
                                      const gp::SolverOptions& options,
                                      const QueryDabs* warm) {
  POLYDAB_ASSIGN_OR_RETURN(
      OptimalRefreshProgram prog,
      BuildOptimalRefreshProgram(query, values, rates, ddm, warm));
  POLYDAB_ASSIGN_OR_RETURN(
      gp::GpSolution sol,
      SolveGp(prog.gp, options, prog.has_warm ? &prog.warm_x : nullptr));
  return ExtractOptimalRefresh(prog, rates, sol);
}

}  // namespace polydab::core
