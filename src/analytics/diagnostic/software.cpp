#include "analytics/diagnostic/software.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "math/fft.hpp"

#include "obs/cell.hpp"

namespace oda::analytics {

NoiseReport analyze_fwq(std::span<const double> durations, double expected,
                        double sample_period_s, double tolerance) {
  ODA_CELL_SCOPE("diag.noise");
  ODA_REQUIRE(expected > 0.0, "expected quantum must be positive");
  ODA_REQUIRE(sample_period_s > 0.0, "sample period must be positive");
  NoiseReport report;
  if (durations.empty()) return report;

  std::size_t noisy = 0;
  double inflation_sum = 0.0;
  std::vector<double> excess(durations.size());
  for (std::size_t i = 0; i < durations.size(); ++i) {
    const double rel = (durations[i] - expected) / expected;
    excess[i] = std::max(0.0, rel);
    if (rel > tolerance) {
      ++noisy;
      inflation_sum += rel;
    }
  }
  report.noise_fraction =
      static_cast<double>(noisy) / static_cast<double>(durations.size());
  report.mean_inflation = noisy ? inflation_sum / static_cast<double>(noisy) : 0.0;

  // Periodicity: dominant spectral component of the excess-time series.
  if (durations.size() >= 16) {
    const auto comps = math::dominant_components(excess, 1);
    if (!comps.empty() && comps[0].frequency > 0.0) {
      // Significant only when the component carries real energy relative to
      // the signal's variance.
      const double sd = stddev(excess);
      if (sd > 0.0 && comps[0].amplitude > 0.5 * sd) {
        report.periodic = true;
        report.dominant_period_s = sample_period_s / comps[0].frequency;
      }
    }
  }
  return report;
}

std::vector<double> synthesize_fwq(std::size_t quanta, double expected,
                                   double noise_period_s, double noise_cost,
                                   double sample_period_s, std::uint64_t seed) {
  ODA_REQUIRE(noise_period_s > 0.0, "noise period must be positive");
  Rng rng(seed);
  std::vector<double> out(quanta, expected);
  double next_noise = noise_period_s * rng.uniform();
  double t = 0.0;
  for (std::size_t i = 0; i < quanta; ++i) {
    out[i] += std::abs(rng.normal(0.0, expected * 0.002));  // jitter floor
    // Each interference event landing in this quantum adds its cost.
    const double t_end = t + sample_period_s;
    while (next_noise < t_end) {
      out[i] += noise_cost;
      next_noise += noise_period_s;
    }
    t = t_end;
  }
  return out;
}

const char* boundedness_name(Boundedness b) {
  switch (b) {
    case Boundedness::kCompute: return "compute-bound";
    case Boundedness::kMemory: return "memory-bound";
    case Boundedness::kNetwork: return "network-bound";
    case Boundedness::kIo: return "io-bound";
    case Boundedness::kIdle: return "idle";
  }
  return "?";
}

Boundedness classify_boundedness(const telemetry::TimeSeriesStore& store,
                                 const sim::RunningJob& job,
                                 const std::vector<std::string>& node_prefixes,
                                 TimePoint now, Duration window) {
  ODA_CELL_SCOPE("diag.bound");
  const TimePoint from = std::max(now - window, job.start_time);
  double cpu = 0.0, mem = 0.0, net = 0.0, io = 0.0;
  std::size_t counted = 0;
  for (std::size_t n : job.nodes) {
    ODA_REQUIRE(n < node_prefixes.size(), "node index out of range");
    const auto read = [&](const char* leaf) {
      const auto slice = store.query(node_prefixes[n] + "/" + leaf, from, now);
      return slice.empty() ? 0.0 : mean(slice.values);
    };
    cpu += read("cpu_util");
    mem += read("mem_bw_util");
    net += read("net_util");
    io += read("io_util");
    ++counted;
  }
  if (counted == 0) return Boundedness::kIdle;
  const double k = static_cast<double>(counted);
  cpu /= k;
  mem /= k;
  net /= k;
  io /= k;

  if (cpu < 0.1 && mem < 0.1 && net < 0.1 && io < 0.1) return Boundedness::kIdle;
  if (io > 0.5 && io > mem && io > net) return Boundedness::kIo;
  if (net > 0.5 && net > mem) return Boundedness::kNetwork;
  if (mem > 0.6 || (mem > 0.4 && mem > cpu * 0.8)) return Boundedness::kMemory;
  return Boundedness::kCompute;
}

}  // namespace oda::analytics
