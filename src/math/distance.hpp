// Distance measures over feature vectors and time series, including dynamic
// time warping for fingerprint matching of variable-length profiles.
#pragma once

#include <cstddef>
#include <span>

namespace oda::math {

// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
double euclidean_distance(std::span<const double> a, std::span<const double> b);
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
double manhattan_distance(std::span<const double> a, std::span<const double> b);
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
double chebyshev_distance(std::span<const double> a, std::span<const double> b);
/// 1 - cosine similarity; 1.0 when either vector is zero.
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
double cosine_distance(std::span<const double> a, std::span<const double> b);

/// Dynamic time warping with an optional Sakoe–Chiba band (0 = unconstrained).
/// Inputs may differ in length. O(len(a)*band) time.
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
double dtw_distance(std::span<const double> a, std::span<const double> b,
                    std::size_t band = 0);

}  // namespace oda::math
