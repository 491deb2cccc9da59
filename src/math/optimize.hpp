// Derivative-free optimizers for prescriptive ODA: cooling set-point tuning
// (1-D golden section), knob tuning (coordinate descent / Nelder–Mead /
// simulated annealing), and application auto-tuning (grid / random search).
// All minimize; negate the objective to maximize.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace oda::math {

using Objective1D = std::function<double(double)>;
using ObjectiveND = std::function<double(std::span<const double>)>;

struct OptResult1D {
  double x = 0.0;
  double value = 0.0;
  std::size_t evaluations = 0;
};

struct OptResultND {
  std::vector<double> x;
  double value = 0.0;
  std::size_t evaluations = 0;
};

/// Golden-section search on [lo, hi] (assumes unimodality there).
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
OptResult1D golden_section(const Objective1D& f, double lo, double hi,
                           double tol = 1e-6, std::size_t max_iter = 200);

/// Cyclic coordinate descent with shrinking steps from an initial point.
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
OptResultND coordinate_descent(const ObjectiveND& f, std::vector<double> x0,
                               std::vector<double> step,
                               std::size_t max_iter = 200, double tol = 1e-8);

/// Nelder–Mead simplex.
OptResultND nelder_mead(const ObjectiveND& f, std::vector<double> x0,
                        double initial_step = 1.0, std::size_t max_iter = 500,
                        double tol = 1e-10);

/// Simulated annealing within a box.
struct AnnealParams {
  double initial_temperature = 1.0;
  double cooling_rate = 0.95;   // temperature multiplier per step
  std::size_t steps = 1000;
  double step_fraction = 0.1;   // proposal size relative to the box
};
OptResultND simulated_annealing(const ObjectiveND& f,
                                std::span<const double> lo,
                                std::span<const double> hi,
                                const AnnealParams& params, Rng& rng);

/// Exhaustive grid search; `levels[i]` are candidate values for dimension i.
OptResultND grid_search(const ObjectiveND& f,
                        const std::vector<std::vector<double>>& levels);

/// Uniform random search within a box.
OptResultND random_search(const ObjectiveND& f, std::span<const double> lo,
                          std::span<const double> hi, std::size_t samples,
                          Rng& rng);

}  // namespace oda::math
