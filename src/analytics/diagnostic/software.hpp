// Software-oriented diagnostics (system-software & applications pillars):
//  * OS-noise characterization — FWQ (fixed-work-quantum) trace analysis:
//    noise intensity, periodicity, and the dominant interference period
//    (Ferreira et al. [57]);
//  * boundedness classification — is a running job compute-, memory-,
//    network- or IO-bound ([20],[44])?
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/store.hpp"

namespace oda::analytics {

// ----------------------------------------------------------------- OS noise

struct NoiseReport {
  double noise_fraction = 0.0;   // share of quanta inflated beyond tolerance
  double mean_inflation = 0.0;   // mean relative slowdown of noisy quanta
  double dominant_period_s = 0.0;  // 0 when aperiodic
  bool periodic = false;
};

/// Analyzes a fixed-work-quantum trace: `durations[i]` is the wall time of
/// quantum i, `expected` the noise-free duration, `sample_period_s` the
/// spacing between quanta.
NoiseReport analyze_fwq(std::span<const double> durations, double expected,
                        double sample_period_s, double tolerance = 0.02);

/// Generates a synthetic FWQ trace with periodic interference — the
/// "benchmark run" a noise study would execute on a real node.
std::vector<double> synthesize_fwq(std::size_t quanta, double expected,
                                   double noise_period_s, double noise_cost,
                                   double sample_period_s, std::uint64_t seed);

// -------------------------------------------------------------- boundedness

enum class Boundedness { kCompute, kMemory, kNetwork, kIo, kIdle };
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
const char* boundedness_name(Boundedness b);

/// Classifies a running job from its mean resource utilizations over the
/// window; thresholds follow the usual counter-based heuristics.
Boundedness classify_boundedness(const telemetry::TimeSeriesStore& store,
                                 const sim::RunningJob& job,
                                 const std::vector<std::string>& node_prefixes,
                                 TimePoint now, Duration window = 10 * kMinute);

}  // namespace oda::analytics
