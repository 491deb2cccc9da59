// Per-grid-cell cost accounting: every instrumented analytics entry point
// opens ODA_CELL_SCOPE naming its (pillar, type) cell and capability id,
// which feeds
//   oda_analytics_run_seconds{pillar=,type=,capability=}   (histogram)
// (its _count is the run count) so the 4x4 framework grid gets a live
// cost-per-cell view (the DCDB Wintermute "plugin overhead accounting" idea
// applied to our own engines), plus a trace span in the "analytics"
// category. The macro resolves the histogram once per call site, so a cell
// run takes no registry lock.
//
// Pillar/type strings follow core::to_string() spelling
// ("building-infrastructure", "system-hardware", "system-software",
// "applications" x "descriptive", "diagnostic", "predictive",
// "prescriptive"); plain strings keep obs independent of core (which links
// against the analytics libraries this header instruments).
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oda::obs {

class CellScope {
 public:
  /// The run-latency histogram of one cell, created on first use. All three
  /// arguments become label values.
  static Histogram& seconds_for(const char* pillar, const char* type,
                                const char* capability);

  /// `capability` must be a string literal: it is the trace span name.
  CellScope(Histogram& seconds, const char* capability);
  ~CellScope();

 private:
  Histogram& seconds_;
  // The span joins the thread's active trace (bus delivery, collect pass)
  // so analytics cells appear as children in the causal tree. Declared
  // before start_us_ so ~CellScope's observe() runs while the span — and
  // therefore the trace context feeding histogram exemplars — is still open.
  TraceSpan span_;
  std::uint64_t start_us_;
};

}  // namespace oda::obs

/// Accounts the enclosing scope to one analytics cell. The arguments must
/// be string literals.
#define ODA_CELL_SCOPE(pillar, type, capability)                            \
  static ::oda::obs::Histogram& ODA_TRACE_CONCAT(oda_cell_seconds_,         \
                                                 __LINE__) =                \
      ::oda::obs::CellScope::seconds_for((pillar), (type), (capability));   \
  const ::oda::obs::CellScope ODA_TRACE_CONCAT(oda_cell_scope_, __LINE__)( \
      ODA_TRACE_CONCAT(oda_cell_seconds_, __LINE__), (capability))
