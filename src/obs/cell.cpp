#include "obs/cell.hpp"

namespace oda::obs {

Histogram& CellScope::seconds_for(const char* capability) {
  return MetricsRegistry::global().histogram(
      "oda_analytics_run_seconds",
      "Latency of instrumented analytics capabilities",
      default_latency_bounds(), {{"capability", capability}});
}

CellScope::CellScope(Histogram& seconds, const char* capability)
    : seconds_(seconds),
      span_(capability, "analytics"),
      start_us_(Tracer::global().now_us()) {}

CellScope::~CellScope() {
  const std::uint64_t end_us = Tracer::global().now_us();
  // Observed before span_ closes (members destroy in reverse order), so the
  // exemplar recorded for oda_analytics_run_seconds links to this cell's
  // own span id's trace.
  seconds_.observe(static_cast<double>(end_us - start_us_) * 1e-6);
}

}  // namespace oda::obs
