// The operational realization of the framework: every analytics engine
// implemented in this library registered as a capability on the grid. The
// paper classifies *other people's* systems; this registry classifies *this
// library's* engines, proving the grid is fully covered by working code —
// each of the 16 cells backed by at least one engine, each descriptor
// pointing at the module that implements it. The catalog is the one place a
// capability's grid cell is written: engines account their runs under the
// capability id alone (ODA_CELL_SCOPE), and render_cell_costs places those
// runs on the grid from here.
#pragma once

#include <string>

#include "core/grid.hpp"
#include "obs/metrics.hpp"

namespace oda::core {

/// Builds the grid of every capability implemented by this library.
FrameworkGrid implemented_capabilities();

/// Asserts full 16-cell coverage; returns the coverage report.
CoverageReport verify_full_coverage(const FrameworkGrid& grid);

/// Renders oda_analytics_run_seconds as "runs @ mean-ms" per (type row,
/// pillar column): each capability's runs land in the first cell of its
/// catalog row. Series whose capability is not in the catalog are skipped.
std::string render_cell_costs(const obs::MetricsSnapshot& snapshot);

}  // namespace oda::core
