// Per-grid-cell cost accounting: every instrumented analytics entry point
// opens ODA_CELL_SCOPE naming its capability id, which feeds
//   oda_analytics_run_seconds{capability=}   (histogram)
// (its _count is the run count) so the 4x4 framework grid gets a live
// cost-per-cell view (the DCDB Wintermute "plugin overhead accounting" idea
// applied to our own engines), plus a trace span in the "analytics"
// category. The macro resolves the histogram once per call site, so a cell
// run takes no registry lock. The id's grid cell is written only in the
// capability catalog (core/bindings.cpp), whose core::render_cell_costs
// places each capability's runs on the grid.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oda::obs {

class CellScope {
 public:
  /// The run-latency histogram of one capability, created on first use.
  static Histogram& seconds_for(const char* capability);

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

/// Accounts the enclosing scope to one analytics capability. The argument
/// must be a string literal naming a row of the capability catalog.
#define ODA_CELL_SCOPE(capability)                                          \
  static ::oda::obs::Histogram& ODA_TRACE_CONCAT(oda_cell_seconds_,         \
                                                 __LINE__) =                \
      ::oda::obs::CellScope::seconds_for(capability);                       \
  const ::oda::obs::CellScope ODA_TRACE_CONCAT(oda_cell_scope_, __LINE__)( \
      ODA_TRACE_CONCAT(oda_cell_seconds_, __LINE__), (capability))
