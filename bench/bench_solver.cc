// Reproduces the §V-A "Solver" measurements with google-benchmark: the
// paper reports 40-70 ms per Dual-DAB PPQ solve and 600-750 ms for an AAO
// solve over 10 PPQs with CVXOPT on a 2.66 GHz P4. Our from-scratch
// barrier solver on modern hardware should be comfortably faster; the
// warm-started re-solve (what a coordinator actually runs on every
// recomputation) is the headline number.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/baseline.h"
#include "core/dual_dab.h"
#include "core/multi_query.h"
#include "core/optimal_refresh.h"
#include "gp/solve_engine.h"
#include "gp/solver_internal.h"

namespace polydab::bench {
namespace {

struct Setup {
  std::vector<PolynomialQuery> queries;
  Vector values;
  Vector rates;
};

/// Portfolio queries over a 100-item universe, §V-A sizes (12-14 items).
Setup MakeSetup(int num_queries) {
  Rng rng(12345);
  workload::QueryGenConfig qc;
  Setup s;
  s.values.resize(100);
  s.rates.resize(100);
  for (size_t i = 0; i < 100; ++i) {
    s.values[i] = rng.Uniform(20.0, 200.0);
    s.rates[i] = rng.Uniform(0.005, 0.1);
  }
  s.queries =
      *workload::GeneratePortfolioQueries(num_queries, qc, s.values, &rng);
  return s;
}

void BM_OptimalRefreshPpq(benchmark::State& state) {
  Setup s = MakeSetup(1);
  for (auto _ : state) {
    auto d = core::SolveOptimalRefresh(s.queries[0], s.values, s.rates);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_OptimalRefreshPpq)->Unit(benchmark::kMillisecond);

void BM_DualDabPpqCold(benchmark::State& state) {
  Setup s = MakeSetup(1);
  core::DualDabParams params;
  params.mu = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto d = core::SolveDualDab(s.queries[0], s.values, s.rates, params);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DualDabPpqCold)->Arg(1)->Arg(5)->Arg(10)->Unit(
    benchmark::kMillisecond);

void BM_DualDabPpqWarm(benchmark::State& state) {
  // What a coordinator runs on every recomputation: re-solve after a small
  // value drift, warm-started from the previous assignment.
  Setup s = MakeSetup(1);
  core::DualDabParams params;
  params.mu = core::kDefaultMu;
  auto prev = core::SolveDualDab(s.queries[0], s.values, s.rates, params);
  if (!prev.ok()) {
    state.SkipWithError("setup solve failed");
    return;
  }
  Vector moved = s.values;
  for (double& v : moved) v *= 1.002;
  for (auto _ : state) {
    auto d = core::SolveDualDab(s.queries[0], moved, s.rates, params,
                                &*prev);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DualDabPpqWarm)->Unit(benchmark::kMillisecond);

void BM_DualDabPpqWarmInstrumented(benchmark::State& state) {
  // The warm re-solve with a telemetry registry attached — the delta
  // against BM_DualDabPpqWarm is the whole cost of the obs instruments
  // (docs/OBSERVABILITY.md documents it as lost in run-to-run noise).
  Setup s = MakeSetup(1);
  obs::MetricRegistry registry;
  core::DualDabParams params;
  params.mu = core::kDefaultMu;
  params.solver.registry = &registry;
  auto prev = core::SolveDualDab(s.queries[0], s.values, s.rates, params);
  if (!prev.ok()) {
    state.SkipWithError("setup solve failed");
    return;
  }
  Vector moved = s.values;
  for (double& v : moved) v *= 1.002;
  for (auto _ : state) {
    auto d = core::SolveDualDab(s.queries[0], moved, s.rates, params,
                                &*prev);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DualDabPpqWarmInstrumented)->Unit(benchmark::kMillisecond);

void BM_DualDabPpqEngineMiss(benchmark::State& state) {
  // The warm re-solve routed through the solve engine with the memo off:
  // the delta against BM_DualDabPpqWarm is the whole cost of the engine
  // detour (signature hash + pooled-skeleton acquire) on a miss.
  Setup s = MakeSetup(1);
  gp::SolveEngine::Options eopt;
  gp::SolveEngine engine(eopt);
  core::DualDabParams params;
  params.mu = core::kDefaultMu;
  params.solver.engine = &engine;
  auto prev = core::SolveDualDab(s.queries[0], s.values, s.rates, params);
  if (!prev.ok()) {
    state.SkipWithError("setup solve failed");
    return;
  }
  Vector moved = s.values;
  for (double& v : moved) v *= 1.002;
  for (auto _ : state) {
    auto d = core::SolveDualDab(s.queries[0], moved, s.rates, params,
                                &*prev);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DualDabPpqEngineMiss)->Unit(benchmark::kMillisecond);

void BM_DualDabPpqEngineHit(benchmark::State& state) {
  // The same re-solve when the memo already holds it — what an
  // EQI-equivalent query across users costs: digest + bitwise verify +
  // instrument replay instead of a barrier solve.
  Setup s = MakeSetup(1);
  gp::SolveEngine::Options eopt;
  eopt.cache_entries = 64;
  gp::SolveEngine engine(eopt);
  core::DualDabParams params;
  params.mu = core::kDefaultMu;
  params.solver.engine = &engine;
  auto prev = core::SolveDualDab(s.queries[0], s.values, s.rates, params);
  if (!prev.ok()) {
    state.SkipWithError("setup solve failed");
    return;
  }
  Vector moved = s.values;
  for (double& v : moved) v *= 1.002;
  // Prime the memo so every timed iteration is a hit.
  if (!core::SolveDualDab(s.queries[0], moved, s.rates, params, &*prev)
           .ok()) {
    state.SkipWithError("priming solve failed");
    return;
  }
  for (auto _ : state) {
    auto d = core::SolveDualDab(s.queries[0], moved, s.rates, params,
                                &*prev);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
  if (engine.cache_hits() == 0) state.SkipWithError("memo never hit");
}
BENCHMARK(BM_DualDabPpqEngineHit)->Unit(benchmark::kMillisecond);

void BM_NewtonSystem(benchmark::State& state) {
  // One Newton iteration's linear algebra, outside any solve: assemble the
  // barrier gradient and Hessian of a 12-item Dual-DAB program (25
  // variables, 25 constraints) at its optimum, at the barrier weight a
  // warm re-solve starts from, and solve for the Newton step.
  Rng rng(12345);
  Vector values(100), rates(100);
  for (size_t i = 0; i < 100; ++i) {
    values[i] = rng.Uniform(20.0, 200.0);
    rates[i] = rng.Uniform(0.005, 0.1);
  }
  auto queries = workload::GeneratePortfolioQueries(
      50, workload::QueryGenConfig(), values, &rng);
  const PolynomialQuery* query = nullptr;
  for (const PolynomialQuery& q : *queries) {
    if (q.p.Variables().size() == 12) {
      query = &q;
      break;
    }
  }
  if (query == nullptr) {
    state.SkipWithError("no 12-item query");
    return;
  }
  core::DualDabParams params;
  params.mu = core::kDefaultMu;
  auto program = core::DualDabGp(*query, values, rates, params);
  if (!program.ok()) {
    state.SkipWithError("program build failed");
    return;
  }
  auto optimum = gp::SolveGp(*program);
  if (!optimum.ok()) {
    state.SkipWithError("setup solve failed");
    return;
  }
  gp::internal::ConvexGp cg;
  gp::internal::BuildConvexGp(*program, &cg);
  Vector y(optimum->x.size());
  for (size_t j = 0; j < y.size(); ++j) y[j] = std::log(optimum->x[j]);
  const gp::SolverOptions options;
  const double t = static_cast<double>(cg.constraints.size()) /
                   options.duality_tol * 1e-4;
  gp::internal::Workspace ws;
  for (auto _ : state) {
    auto phi = gp::internal::AssembleCenteringSystem(cg, y, t, &ws);
    if (!phi.ok() ||
        !SolveCholeskyInto(ws.hess, ws.grad, 0.0, &ws.chol, &ws.d).ok()) {
      state.SkipWithError("Newton system failed");
      break;
    }
    benchmark::DoNotOptimize(ws.d.data());
  }
}
BENCHMARK(BM_NewtonSystem);

void BM_AaoTenPpqs(benchmark::State& state) {
  Setup s = MakeSetup(10);
  core::DualDabParams params;
  params.mu = core::kDefaultMu;
  for (auto _ : state) {
    auto d = core::SolveAao(s.queries, s.values, s.rates, params);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_AaoTenPpqs)->Unit(benchmark::kMillisecond);

void BM_WsDabBaseline(benchmark::State& state) {
  Setup s = MakeSetup(1);
  for (auto _ : state) {
    auto d = core::SolveWsDab(s.queries[0], s.values);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_WsDabBaseline)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace polydab::bench

BENCHMARK_MAIN();
