#include "core/grid.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/table.hpp"

namespace oda::core {

bool CapabilityDescriptor::occupies(const GridCell& cell) const {
  return std::find(cells.begin(), cells.end(), cell) != cells.end();
}

std::size_t pillar_count(const std::vector<GridCell>& cells) {
  std::set<Pillar> pillars;
  for (const auto& c : cells) pillars.insert(c.pillar);
  return pillars.size();
}

std::size_t type_count(const std::vector<GridCell>& cells) {
  std::set<AnalyticsType> types;
  for (const auto& c : cells) types.insert(c.type);
  return types.size();
}

double cell_jaccard(const std::vector<GridCell>& a,
                    const std::vector<GridCell>& b) {
  const std::set<GridCell> sa(a.begin(), a.end());
  const std::set<GridCell> sb(b.begin(), b.end());
  std::size_t inter = 0;
  for (const auto& c : sa) inter += sb.count(c);
  const std::size_t uni = sa.size() + sb.size() - inter;
  return uni ? static_cast<double>(inter) / static_cast<double>(uni) : 0.0;
}

bool CapabilityDescriptor::multi_pillar() const {
  return pillar_count(cells) > 1;
}

bool CapabilityDescriptor::multi_type() const { return type_count(cells) > 1; }

void FrameworkGrid::register_capability(CapabilityDescriptor descriptor) {
  ODA_REQUIRE(!descriptor.id.empty(), "capability needs an id");
  ODA_REQUIRE(!descriptor.cells.empty(), "capability must occupy a cell");
  ODA_REQUIRE(index_.count(descriptor.id) == 0,
              "duplicate capability id: " + descriptor.id);
  index_[descriptor.id] = capabilities_.size();
  capabilities_.push_back(std::move(descriptor));
}

const CapabilityDescriptor& FrameworkGrid::at(const std::string& id) const {
  const auto it = index_.find(id);
  ODA_REQUIRE(it != index_.end(), "unknown capability: " + id);
  return capabilities_[it->second];
}

bool FrameworkGrid::contains(const std::string& id) const {
  return index_.count(id) != 0;
}

std::vector<const CapabilityDescriptor*> FrameworkGrid::in_cell(
    const GridCell& cell) const {
  std::vector<const CapabilityDescriptor*> out;
  for (const auto& c : capabilities_) {
    if (c.occupies(cell)) out.push_back(&c);
  }
  return out;
}

CoverageReport FrameworkGrid::coverage() const {
  CoverageReport report;
  report.total_capabilities = capabilities_.size();
  for (const auto& type : kAllTypes) {
    for (const auto& pillar : kAllPillars) {
      const GridCell cell{pillar, type};
      const auto n = in_cell(cell).size();
      report.counts[static_cast<std::size_t>(type)]
                   [static_cast<std::size_t>(pillar)] = n;
      if (n > 0) {
        ++report.occupied_cells;
      } else {
        report.gaps.push_back(cell);
      }
    }
  }
  return report;
}

double FrameworkGrid::similarity(const std::string& id_a,
                                 const std::string& id_b) const {
  return cell_jaccard(at(id_a).cells, at(id_b).cells);
}

std::vector<RoadmapSuggestion> FrameworkGrid::roadmap() const {
  std::vector<RoadmapSuggestion> out;
  const auto report = coverage();
  for (const auto& pillar : kAllPillars) {
    for (const auto& type : kAllTypes) {  // in staged order
      if (report.counts[static_cast<std::size_t>(type)]
                       [static_cast<std::size_t>(pillar)] == 0) {
        RoadmapSuggestion s;
        s.pillar = pillar;
        s.next_type = type;
        s.rationale =
            std::string("pillar '") + to_string(pillar) + "' lacks " +
            to_string(type) + " analytics; the staged model suggests adding "
            "it before more sophisticated types (" +
            traits(type).question + ")";
        out.push_back(std::move(s));
        break;  // only the first missing stage per pillar
      }
    }
  }
  return out;
}

std::string FrameworkGrid::render_roadmap() const {
  const auto suggestions = roadmap();
  TextTable table({"pillar", "next stage", "question it will answer",
                   "typical techniques"});
  table.set_title("STAGED ODA ROADMAP (first missing analytics stage per pillar)");
  table.set_max_width(2, 30);
  table.set_max_width(3, 36);
  if (suggestions.empty()) {
    table.add_row({"(all pillars)", "-",
                   "every cell of the framework is already covered", "-"});
  }
  for (const auto& s : suggestions) {
    const auto& t = traits(s.next_type);
    table.add_row({to_string(s.pillar), t.name, t.question,
                   t.typical_techniques});
  }
  return table.render();
}

std::string FrameworkGrid::render(const std::string& title,
                                  std::size_t max_per_cell) const {
  TextTable table({"", to_string(Pillar::kBuildingInfrastructure),
                   to_string(Pillar::kSystemHardware),
                   to_string(Pillar::kSystemSoftware),
                   to_string(Pillar::kApplications)});
  table.set_title(title);
  for (std::size_t c = 1; c <= 4; ++c) table.set_max_width(c, 30);

  // Prescriptive at the top, as in the paper's Table I.
  for (auto it = kAllTypes.rbegin(); it != kAllTypes.rend(); ++it) {
    std::vector<std::string> row{to_string(*it)};
    for (const auto& pillar : kAllPillars) {
      const auto caps = in_cell({pillar, *it});
      std::string cell_text;
      for (std::size_t i = 0; i < caps.size() && i < max_per_cell; ++i) {
        if (i) cell_text += "\n";
        cell_text += "- " + caps[i]->name;
      }
      if (caps.size() > max_per_cell) {
        cell_text += "\n(+" + std::to_string(caps.size() - max_per_cell) +
                     " more)";
      }
      row.push_back(cell_text);
    }
    table.add_row(std::move(row));
    table.add_separator();
  }
  return table.render();
}

}  // namespace oda::core
