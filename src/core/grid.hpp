// The 4x4 framework grid made operational: a registry of ODA capabilities
// classified by (pillar, type) cells, with the analyses the paper performs
// on top of it — coverage and gap analysis (Sec. I: "show areas that are
// rich, as well as gaps"), similarity between systems, single- vs
// multi-pillar classification (Sec. V-B), and staged-roadmap suggestions
// (Sec. I: "staged roadmaps in planning for HPC ODA systems").
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/pillars.hpp"

namespace oda::core {

struct GridCell {
  Pillar pillar{};
  AnalyticsType type{};

  auto operator<=>(const GridCell&) const = default;
};

// Set measures over a cell list (a capability's or a system's cells);
// duplicate cells count once.

/// Distinct pillars among `cells`.
std::size_t pillar_count(const std::vector<GridCell>& cells);
/// Distinct analytics types among `cells`.
std::size_t type_count(const std::vector<GridCell>& cells);
/// Jaccard similarity |A n B| / |A u B| of two cell sets (0 when both are
/// empty).
double cell_jaccard(const std::vector<GridCell>& a,
                    const std::vector<GridCell>& b);

/// One ODA capability (a component of an ODA system) and its classification.
struct CapabilityDescriptor {
  std::string id;           // unique, e.g. "kpi.pue"
  std::string name;         // human-readable
  std::string description;
  std::vector<GridCell> cells;           // usually one; may span several
  std::vector<std::string> inputs;       // sensor patterns / data consumed
  std::vector<std::string> outputs;      // what it produces
  std::vector<std::string> knobs;        // actuators written (prescriptive)
  std::vector<int> references;           // paper reference numbers, if surveyed

  bool occupies(const GridCell& cell) const;
  bool multi_pillar() const;
  bool multi_type() const;
};

struct CoverageReport {
  std::size_t total_capabilities = 0;
  std::size_t occupied_cells = 0;      // of the 16
  std::vector<GridCell> gaps;          // empty cells
  /// Capability count per cell, indexed [type][pillar].
  std::array<std::array<std::size_t, kPillarCount>, kTypeCount> counts{};
};

/// Suggested next capability for a staged roadmap.
struct RoadmapSuggestion {
  Pillar pillar{};
  AnalyticsType next_type{};
  std::string rationale;
};

class FrameworkGrid {
 public:
  void register_capability(CapabilityDescriptor descriptor);
  std::size_t size() const { return capabilities_.size(); }
  const std::vector<CapabilityDescriptor>& capabilities() const {
    return capabilities_;
  }
  const CapabilityDescriptor& at(const std::string& id) const;
  bool contains(const std::string& id) const;

  /// Capabilities occupying a cell.
  std::vector<const CapabilityDescriptor*> in_cell(const GridCell& cell) const;
  CoverageReport coverage() const;

  /// Jaccard similarity of the cell sets of two capabilities/systems.
  double similarity(const std::string& id_a, const std::string& id_b) const;

  /// Roadmap: for each pillar, the least-sophisticated analytics type not
  /// yet covered (the staged descriptive→prescriptive progression).
  std::vector<RoadmapSuggestion> roadmap() const;

  /// Renders the grid as a table (cells list capability names) — the shape
  /// of the paper's Table I.
  std::string render(const std::string& title,
                     std::size_t max_per_cell = 4) const;

  /// Renders the staged-roadmap suggestions as a planning report — the
  /// "staged roadmaps in planning for HPC ODA systems" use the paper
  /// motivates in Sec. I.
  std::string render_roadmap() const;

 private:
  std::vector<CapabilityDescriptor> capabilities_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace oda::core
