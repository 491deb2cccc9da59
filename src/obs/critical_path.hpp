// Trace-derived critical-path analysis: consumes the span events produced
// by the causal tracer (obs/trace.hpp), reconstructs each trace's span tree
// from the parent ids, and decomposes every root span's wall-clock window
// into the chain of spans that were "last responsible" for each time slice
// — the critical path. Two derived quantities make the 0.96x
// frame_parallel_speedup diagnosable (ROADMAP item 3):
//
//   * per-name critical-path self time: how much of the end-to-end window
//     each span name personally accounts for (root self time on the
//     critical path of a fork-join pass = time spent submitting/joining,
//     i.e. scheduling overhead);
//   * the parallelism coefficient: total busy time across all spans in the
//     tree divided by the root duration — 1.0 means perfectly serial, N
//     means N-wide effective concurrency.
//
// The algorithm is deterministic (documented tie-breaks, integer
// microseconds end to end) so tests can assert exact outputs, against
// hand-built DAGs and against a golden report over traces cut from a real
// self_monitor run (tests/data/critical_path_golden.{csv,txt}).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace oda::obs {

/// Per-span-name aggregate within one root's tree.
struct SpanAgg {
  std::string name;
  std::uint64_t count = 0;    ///< spans with this name under the root
  std::uint64_t self_us = 0;  ///< duration not covered by child spans
  std::uint64_t cp_us = 0;    ///< self time lying on the critical path
};

/// Analysis of one root span (one per trace root; a trace with orphaned
/// subtrees yields one report per orphan root).
struct CriticalPathReport {
  std::uint64_t trace_id = 0;
  std::uint64_t root_span_id = 0;
  std::string root_name;
  std::uint64_t root_start_us = 0;
  std::uint64_t root_dur_us = 0;
  /// Length of the critical path through the tree (equals the portion of
  /// the root window attributable to any span — the root itself covers its
  /// whole window, so for well-formed traces this equals root_dur_us; the
  /// decomposition in `top` is the diagnostic payload).
  std::uint64_t critical_path_us = 0;
  std::uint64_t total_busy_us = 0;  ///< sum of self time over all spans
  double parallelism = 0.0;         ///< total_busy_us / root_dur_us
  std::size_t span_count = 0;       ///< spans in this root's tree
  std::vector<SpanAgg> top;         ///< by cp_us desc (tie: self desc, name)
};

/// Builds one report per root span found in `events` (instants and
/// untraced events are ignored). `top_n` caps the per-report aggregate
/// list. Reports are ordered by root duration descending (ties: trace id,
/// then span id ascending) — deterministic for a given event multiset.
std::vector<CriticalPathReport> analyze_critical_path(
    const std::vector<TraceEvent>& events, std::size_t top_n = 10);

/// Human-readable multi-line rendering (self_monitor's report export).
std::string render_critical_path(const std::vector<CriticalPathReport>& reports);

}  // namespace oda::obs
