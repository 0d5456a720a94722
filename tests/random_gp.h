#ifndef POLYDAB_TESTS_RANDOM_GP_H_
#define POLYDAB_TESTS_RANDOM_GP_H_

#include <cstdint>
#include <utility>

#include "common/rng.h"
#include "gp/posynomial.h"

namespace polydab::gp {

/// A random bounded GP in the shape the planner produces: an objective
/// that wants every variable large (inverse-power terms, scaled by mu)
/// against positive-exponent capacity constraints that cap them. Strictly
/// feasible (x -> 0 satisfies every constraint) and bounded (the
/// objective blows up at 0, the constraints bind at infinity).
inline GpProblem RandomProgram(uint64_t seed, double mu) {
  Rng rng(seed);
  GpProblem gp;
  const int k = static_cast<int>(rng.UniformInt(1, 4));
  gp.num_vars = k;
  for (int i = 0; i < k; ++i) {
    gp.objective.AddTerm(mu * rng.Uniform(0.5, 5.0),
                         {{i, -0.5 * static_cast<double>(
                                   rng.UniformInt(1, 4))}});
  }
  Posynomial coupling;
  for (int i = 0; i < k; ++i) {
    coupling.AddTerm(rng.Uniform(0.1, 1.0),
                     {{i, 0.5 * static_cast<double>(rng.UniformInt(1, 4))}});
  }
  gp.constraints.push_back(std::move(coupling));
  for (int i = 0; i < k; ++i) {
    if (rng.Bernoulli(0.5)) {
      Posynomial cap;
      cap.AddTerm(rng.Uniform(0.2, 2.0), {{i, 1.0}});
      gp.constraints.push_back(std::move(cap));
    }
  }
  return gp;
}

}  // namespace polydab::gp

#endif  // POLYDAB_TESTS_RANDOM_GP_H_
