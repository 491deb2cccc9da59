// Per-layer cost ledger from a traced window: every span name maps to one
// layer through a single table (ledger.cpp), and each layer is charged the
// critical-path self time of its spans under the "bench.tick" roots, as
// obs::analyze_critical_path computes it. The critical-path shares of all
// layers add up to the ticks' wall time; the "bench.tick" root's own share
// is the part no layer claims (ledger.unattributed_us).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace tickbench {

struct LayerCost {
  std::uint64_t cp_us = 0;    // self time on the critical path
  std::uint64_t self_us = 0;  // self (busy) time, summed over threads
  std::uint64_t spans = 0;
};

struct Ledger {
  std::map<std::string, LayerCost> layers;  // by layer name
  std::map<std::string, LayerCost> unmapped;  // span names not in the table
  std::uint64_t roots = 0;      // "bench.tick" trees analyzed
  std::uint64_t root_us = 0;    // their summed wall time
  std::uint64_t spans = 0;      // spans under those roots
  std::uint64_t control_us = 0;  // inclusive "bench.control" time

  /// Adds one traced window's events.
  void add(const std::vector<oda::obs::TraceEvent>& events);
  LayerCost layer(const std::string& name) const;
  std::string render() const;
};

/// Layer of a span name ("" when the table does not know it).
std::string layer_of(const std::string& span_name);

/// The capability ids of the 16 cells, in grid order.
const std::vector<std::string>& cell_ids();

}  // namespace tickbench
