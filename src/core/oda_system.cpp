#include "core/oda_system.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/table.hpp"

namespace oda::core {

bool OdaSystem::multi_pillar() const { return pillar_count(cells) > 1; }

bool OdaSystem::multi_type() const { return type_count(cells) > 1; }

std::size_t OdaSystem::discipline_count() const { return type_count(cells); }

std::vector<OdaSystem> published_example_systems() {
  using P = Pillar;
  using T = AnalyticsType;
  std::vector<OdaSystem> systems;

  systems.push_back(
      {"ENI anomaly response", "ENI Green Data Center, Pavia",
       "Diagnoses infrastructure anomalies (aided by periodic stress tests) "
       "and prescribes cost-effective cooling set-point responses.",
       {{P::kBuildingInfrastructure, T::kDiagnostic},
        {P::kBuildingInfrastructure, T::kPrescriptive}},
       {39}});

  systems.push_back(
      {"PowerStack", "multi-site initiative",
       "Cross-pillar HPC power management: predictive models feeding "
       "prescriptive scheduling, hardware and software decisions.",
       {{P::kSystemHardware, T::kPredictive},
        {P::kSystemHardware, T::kPrescriptive},
        {P::kSystemSoftware, T::kPredictive},
        {P::kSystemSoftware, T::kPrescriptive},
        {P::kApplications, T::kPrescriptive}},
       {41}});

  systems.push_back(
      {"LLNL utility notification", "Lawrence Livermore National Laboratory",
       "Fourier analysis of historical facility power to forecast spikes "
       "beyond 750 kW / 15 min and notify the utility ahead of time.",
       {{P::kBuildingInfrastructure, T::kDescriptive},
        {P::kBuildingInfrastructure, T::kPredictive}},
       {72}});

  systems.push_back(
      {"DRAS-CQSim", "Illinois Institute of Technology",
       "Reinforcement-learning scheduling: workload prediction plus "
       "KPI-aware dispatching policies.",
       {{P::kSystemSoftware, T::kPredictive},
        {P::kSystemSoftware, T::kPrescriptive}},
       {23}});

  systems.push_back(
      {"ClusterCockpit", "FAU Erlangen",
       "Web dashboards for job-specific performance monitoring.",
       {{P::kApplications, T::kDescriptive}},
       {5}});

  systems.push_back(
      {"GEOPM", "Intel / community",
       "Runtime power management: predicts CPU instruction mixes and tunes "
       "frequencies during application phases.",
       {{P::kSystemHardware, T::kPredictive},
        {P::kSystemHardware, T::kPrescriptive}},
       {11}});

  return systems;
}

std::string render_figure3(const std::vector<OdaSystem>& systems) {
  TextTable table({"", "Building Infrastructure", "System Hardware",
                   "System Software", "Applications"});
  table.set_title("FIGURE 3: COMPLEX ODA SYSTEMS CATEGORIZED WITH THE FRAMEWORK");

  for (auto it = kAllTypes.rbegin(); it != kAllTypes.rend(); ++it) {
    std::vector<std::string> row{to_string(*it)};
    for (const auto& pillar : kAllPillars) {
      std::string marks;
      for (std::size_t s = 0; s < systems.size(); ++s) {
        const GridCell cell{pillar, *it};
        const bool occupies =
            std::find(systems[s].cells.begin(), systems[s].cells.end(), cell) !=
            systems[s].cells.end();
        if (occupies) {
          if (!marks.empty()) marks += " ";
          marks += static_cast<char>('A' + s);
        }
      }
      row.push_back(marks);
    }
    table.add_row(std::move(row));
  }

  std::ostringstream out;
  out << table.render();
  out << "legend:\n";
  for (std::size_t s = 0; s < systems.size(); ++s) {
    out << "  " << static_cast<char>('A' + s) << " = " << systems[s].name
        << " (" << systems[s].site << ")";
    if (systems[s].multi_pillar()) out << " [multi-pillar]";
    if (systems[s].multi_type()) out << " [multi-type]";
    out << "\n";
  }
  return out.str();
}

double system_similarity(const OdaSystem& a, const OdaSystem& b) {
  return cell_jaccard(a.cells, b.cells);
}

double comprehensiveness(const OdaSystem& system) {
  const std::set<GridCell> cells(system.cells.begin(), system.cells.end());
  return static_cast<double>(cells.size()) /
         static_cast<double>(kPillarCount * kTypeCount);
}

std::string render_similarity_matrix(const std::vector<OdaSystem>& systems) {
  std::vector<std::string> headers{""};
  for (std::size_t s = 0; s < systems.size(); ++s) {
    headers.push_back(std::string(1, static_cast<char>('A' + s)));
  }
  TextTable table(headers);
  table.set_title("PAIRWISE GRID-LOCATION SIMILARITY (Jaccard over cells)");
  for (std::size_t i = 0; i < systems.size(); ++i) {
    std::vector<std::string> row{std::string(1, static_cast<char>('A' + i)) +
                                 " " + systems[i].name};
    for (std::size_t j = 0; j < systems.size(); ++j) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.2f",
                    system_similarity(systems[i], systems[j]));
      row.push_back(buf);
    }
    table.add_row(std::move(row));
  }
  return table.render();
}

SystemCensus census(const std::vector<OdaSystem>& systems) {
  SystemCensus c;
  c.total = systems.size();
  for (const auto& s : systems) {
    const bool mp = s.multi_pillar();
    const bool mt = s.multi_type();
    if (!mp && !mt) ++c.single_cell;
    else if (mt && !mp) ++c.multi_type_only;
    else if (mp && !mt) ++c.multi_pillar_only;
    else ++c.multi_both;
  }
  return c;
}

}  // namespace oda::core
