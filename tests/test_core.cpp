// Tests for the core ODA framework: pillars/types, the 4x4 grid, the survey
// catalog that regenerates Table I, the complex-system compositions of
// Figure 3, the library's own full-coverage binding, and the cost-per-cell
// view it places on the grid.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "core/bindings.hpp"
#include "core/figures.hpp"
#include "core/grid.hpp"
#include "core/oda_system.hpp"
#include "core/pillars.hpp"
#include "core/survey_catalog.hpp"
#include "obs/metrics.hpp"

namespace oda::core {
namespace {

// ------------------------------------------------------------ pillars/types

TEST(Pillars, TraitsAndRoundTrip) {
  for (const auto& p : kAllPillars) {
    const auto& t = traits(p);
    EXPECT_EQ(t.pillar, p);
    EXPECT_STREQ(to_string(p), t.name);
  }
}

TEST(Types, StagedOrderAndQuestions) {
  for (const auto& t : kAllTypes) {
    const auto& tt = traits(t);
    EXPECT_EQ(tt.type, t);
    EXPECT_STREQ(to_string(t), tt.name);
  }
  // Value and difficulty increase along the staircase.
  for (std::size_t i = 1; i < kAllTypes.size(); ++i) {
    EXPECT_GT(traits(kAllTypes[i]).value_rank, traits(kAllTypes[i - 1]).value_rank);
    EXPECT_GT(traits(kAllTypes[i]).difficulty_rank,
              traits(kAllTypes[i - 1]).difficulty_rank);
  }
  // Hindsight -> foresight progression.
  EXPECT_EQ(traits(AnalyticsType::kDescriptive).insight, Insight::kHindsight);
  EXPECT_EQ(traits(AnalyticsType::kDiagnostic).insight, Insight::kInsight);
  EXPECT_EQ(traits(AnalyticsType::kPredictive).insight, Insight::kForesight);
  EXPECT_FALSE(traits(AnalyticsType::kDescriptive).proactive);
  EXPECT_TRUE(traits(AnalyticsType::kPrescriptive).proactive);
}

// -------------------------------------------------------------------- grid

CapabilityDescriptor make_cap(const std::string& id, Pillar p, AnalyticsType t) {
  CapabilityDescriptor d;
  d.id = id;
  d.name = id;
  d.cells = {{p, t}};
  return d;
}

TEST(Grid, RegisterAndQuery) {
  FrameworkGrid grid;
  grid.register_capability(
      make_cap("a", Pillar::kSystemHardware, AnalyticsType::kDiagnostic));
  EXPECT_TRUE(grid.contains("a"));
  EXPECT_EQ(grid.in_cell({Pillar::kSystemHardware, AnalyticsType::kDiagnostic})
                .size(),
            1u);
  EXPECT_TRUE(
      grid.in_cell({Pillar::kApplications, AnalyticsType::kDiagnostic}).empty());
  EXPECT_THROW(grid.at("zzz"), ContractError);
  EXPECT_THROW(grid.register_capability(
                   make_cap("a", Pillar::kApplications, AnalyticsType::kDescriptive)),
               ContractError);
}

TEST(Grid, CoverageAndGaps) {
  FrameworkGrid grid;
  grid.register_capability(
      make_cap("a", Pillar::kSystemHardware, AnalyticsType::kDescriptive));
  const auto report = grid.coverage();
  EXPECT_EQ(report.occupied_cells, 1u);
  EXPECT_EQ(report.gaps.size(), 15u);
  EXPECT_EQ(report.counts[0][1], 1u);  // [descriptive][system-hardware]
}

TEST(Grid, SimilarityJaccard) {
  FrameworkGrid grid;
  auto a = make_cap("a", Pillar::kSystemHardware, AnalyticsType::kPredictive);
  a.cells.push_back({Pillar::kSystemHardware, AnalyticsType::kPrescriptive});
  auto b = make_cap("b", Pillar::kSystemHardware, AnalyticsType::kPrescriptive);
  auto c = make_cap("c", Pillar::kApplications, AnalyticsType::kDescriptive);
  grid.register_capability(a);
  grid.register_capability(b);
  grid.register_capability(c);
  EXPECT_DOUBLE_EQ(grid.similarity("a", "b"), 0.5);
  EXPECT_DOUBLE_EQ(grid.similarity("a", "c"), 0.0);
  EXPECT_DOUBLE_EQ(grid.similarity("a", "a"), 1.0);
}

TEST(Grid, RoadmapSuggestsFirstMissingStage) {
  FrameworkGrid grid;
  grid.register_capability(
      make_cap("desc", Pillar::kSystemHardware, AnalyticsType::kDescriptive));
  const auto roadmap = grid.roadmap();
  ASSERT_EQ(roadmap.size(), 4u);  // every pillar gets a suggestion
  for (const auto& s : roadmap) {
    if (s.pillar == Pillar::kSystemHardware) {
      EXPECT_EQ(s.next_type, AnalyticsType::kDiagnostic);
    } else {
      EXPECT_EQ(s.next_type, AnalyticsType::kDescriptive);
    }
  }
}

TEST(Grid, MultiPillarMultiTypeFlags) {
  auto d = make_cap("x", Pillar::kSystemHardware, AnalyticsType::kPredictive);
  EXPECT_FALSE(d.multi_pillar());
  EXPECT_FALSE(d.multi_type());
  d.cells.push_back({Pillar::kSystemSoftware, AnalyticsType::kPredictive});
  EXPECT_TRUE(d.multi_pillar());
  EXPECT_FALSE(d.multi_type());
  d.cells.push_back({Pillar::kSystemHardware, AnalyticsType::kPrescriptive});
  EXPECT_TRUE(d.multi_type());
}

TEST(Grid, RenderListsCapabilities) {
  FrameworkGrid grid;
  grid.register_capability(
      make_cap("pue-calc", Pillar::kBuildingInfrastructure,
               AnalyticsType::kDescriptive));
  const auto out = grid.render("TEST GRID");
  EXPECT_NE(out.find("pue-calc"), std::string::npos);
  EXPECT_NE(out.find("prescriptive"), std::string::npos);
}

// ---------------------------------------------------------- survey catalog

TEST(Survey, Table1CellCountsMatchPaper) {
  const auto catalog = SurveyCatalog::table1();
  // The paper's Table I: every one of the 16 cells is populated.
  for (const auto& type : kAllTypes) {
    for (const auto& pillar : kAllPillars) {
      EXPECT_FALSE(catalog.in_cell({pillar, type}).empty())
          << to_string(type) << "/" << to_string(pillar);
    }
  }
  // Exact bullet counts per paper row.
  std::size_t prescriptive = 0, predictive = 0, diagnostic = 0, descriptive = 0;
  for (const auto& uc : catalog.use_cases()) {
    switch (uc.cell.type) {
      case AnalyticsType::kPrescriptive: ++prescriptive; break;
      case AnalyticsType::kPredictive: ++predictive; break;
      case AnalyticsType::kDiagnostic: ++diagnostic; break;
      case AnalyticsType::kDescriptive: ++descriptive; break;
    }
  }
  EXPECT_EQ(prescriptive, 11u);
  EXPECT_EQ(predictive, 11u);
  EXPECT_EQ(diagnostic, 12u);
  EXPECT_EQ(descriptive, 11u);
}

TEST(Survey, MultiCellReferencesIncludeKnownSystems) {
  const auto catalog = SurveyCatalog::table1();
  const auto multi = catalog.multi_cell_references();
  // Warm-water cooling [12] spans infra+hardware prescriptive; GEOPM [11]
  // spans predictive+prescriptive; PowerStack [41] hardware+applications.
  const auto has = [&](int r) {
    return std::find(multi.begin(), multi.end(), r) != multi.end();
  };
  EXPECT_TRUE(has(12));
  EXPECT_TRUE(has(11));
  EXPECT_TRUE(has(41));
  EXPECT_TRUE(has(24));
}

TEST(Survey, EveryCitedReferenceHasBibliography) {
  const auto catalog = SurveyCatalog::table1();
  for (const auto& uc : catalog.use_cases()) {
    for (int r : uc.references) {
      EXPECT_TRUE(catalog.references().count(r)) << "missing reference " << r;
    }
  }
  EXPECT_GE(catalog.reference_count(), 55u);
}

TEST(Survey, RenderTable1ContainsPaperBullets) {
  const auto catalog = SurveyCatalog::table1();
  const auto table = catalog.render_table1();
  EXPECT_NE(table.find("TABLE I"), std::string::npos);
  EXPECT_NE(table.find("PUE calculation"), std::string::npos);
  EXPECT_NE(table.find("Plan-based scheduling"), std::string::npos);
  EXPECT_NE(table.find("Application fingerprinting"), std::string::npos);
  EXPECT_NE(table.find("Auto-tuning of HPC"), std::string::npos);
  EXPECT_NE(table.find("[12]"), std::string::npos);
}

TEST(Survey, ToGridCoversAllCells) {
  const auto grid = SurveyCatalog::table1().to_grid();
  const auto report = grid.coverage();
  EXPECT_EQ(report.occupied_cells, 16u);
  EXPECT_TRUE(report.gaps.empty());
  EXPECT_EQ(report.total_capabilities, 45u);  // 11+11+12+11 bullets
}

TEST(Survey, StatisticsRender) {
  const auto stats = SurveyCatalog::table1().render_statistics();
  EXPECT_NE(stats.find("distinct references"), std::string::npos);
  EXPECT_NE(stats.find("total"), std::string::npos);
}

// ------------------------------------------------------------- ODA systems

TEST(OdaSystems, PublishedExamplesClassification) {
  const auto systems = published_example_systems();
  ASSERT_GE(systems.size(), 5u);
  // ENI: multi-type, single-pillar.
  const auto& eni = systems[0];
  EXPECT_TRUE(eni.multi_type());
  EXPECT_FALSE(eni.multi_pillar());
  EXPECT_EQ(eni.discipline_count(), 2u);
  // PowerStack: multi-pillar and multi-type.
  const auto& powerstack = systems[1];
  EXPECT_TRUE(powerstack.multi_pillar());
  EXPECT_TRUE(powerstack.multi_type());
  // ClusterCockpit: single cell.
  const auto it = std::find_if(systems.begin(), systems.end(),
                               [](const OdaSystem& s) {
                                 return s.name == "ClusterCockpit";
                               });
  ASSERT_NE(it, systems.end());
  EXPECT_FALSE(it->multi_pillar());
  EXPECT_FALSE(it->multi_type());
}

TEST(OdaSystems, CensusMatchesPaperObservation) {
  const auto systems = published_example_systems();
  const auto c = census(systems);
  EXPECT_EQ(c.total, systems.size());
  EXPECT_EQ(c.single_cell + c.multi_type_only + c.multi_pillar_only +
                c.multi_both,
            c.total);
  // Paper Sec. V-B: multi-pillar systems are the minority.
  EXPECT_LT(c.multi_pillar_only + c.multi_both, c.total / 2 + 1);
}

TEST(OdaSystems, Figure3RendersLegendAndMarks) {
  const auto out = render_figure3(published_example_systems());
  EXPECT_NE(out.find("FIGURE 3"), std::string::npos);
  EXPECT_NE(out.find("A = ENI"), std::string::npos);
  EXPECT_NE(out.find("[multi-pillar]"), std::string::npos);
}

// ---------------------------------------------------------------- figures

TEST(Figures, Figure1ListsPillars) {
  const auto out = render_figure1();
  for (const auto& p : kAllPillars) {
    EXPECT_NE(out.find(to_string(p)), std::string::npos);
  }
}

TEST(Figures, Figure2StaircaseWithMeasurements) {
  std::map<AnalyticsType, double> costs{
      {AnalyticsType::kDescriptive, 0.5},
      {AnalyticsType::kPrescriptive, 12.0},
  };
  const auto out = render_figure2(costs);
  EXPECT_NE(out.find("What happened?"), std::string::npos);
  EXPECT_NE(out.find("measured reference cost"), std::string::npos);
  EXPECT_NE(out.find("foresight"), std::string::npos);
}

// --------------------------------------------------------------- bindings

TEST(Bindings, LibraryCoversAll16Cells) {
  const auto grid = implemented_capabilities();
  EXPECT_GE(grid.size(), 30u);
  const auto report = verify_full_coverage(grid);
  EXPECT_EQ(report.occupied_cells, 16u);
}

TEST(Bindings, PrescriptiveCapabilitiesDeclareKnobs) {
  const auto grid = implemented_capabilities();
  for (const auto& cap : grid.capabilities()) {
    bool prescriptive = false;
    for (const auto& cell : cap.cells) {
      prescriptive |= cell.type == AnalyticsType::kPrescriptive;
    }
    // Placement, auto-tuning and recommendations prescribe without writing
    // facility knobs (their actuators are the scheduler, the application,
    // and the developer respectively).
    const bool knobless = cap.id == "presc.placement" ||
                          cap.id == "presc.autotune" ||
                          cap.id == "presc.recommend";
    if (prescriptive && !knobless) {
      EXPECT_FALSE(cap.knobs.empty()) << cap.id;
    }
  }
}

TEST(Bindings, RoadmapEmptyWhenFullyCovered) {
  const auto grid = implemented_capabilities();
  EXPECT_TRUE(grid.roadmap().empty());
}

// ------------------------------------------------------------- cell costs

/// The four pillar cells of `type`'s row in a rendered cost table.
std::vector<std::string> cost_row(const std::string& table,
                                  AnalyticsType type) {
  std::istringstream lines(table);
  for (std::string line; std::getline(lines, line);) {
    std::vector<std::string> cells;
    for (const auto& part : split(line, '|')) {
      cells.emplace_back(trim(part));
    }
    // "| type | c0 | c1 | c2 | c3 |" splits into 7 parts.
    if (cells.size() == 7 && cells[1] == to_string(type)) {
      return {cells.begin() + 2, cells.end() - 1};
    }
  }
  return {};
}

TEST(PipelineHealth, RenderCellCosts) {
  obs::MetricsRegistry reg;
  obs::Histogram& h =
      reg.histogram("oda_analytics_run_seconds", "runs", std::vector<double>{1},
                    {{"capability", "pred.runtime"}});
  h.observe(0.010);
  h.observe(0.030);
  const std::string table = render_cell_costs(reg.snapshot());
  // 2 runs at a 20 ms mean in the (predictive, applications) cell.
  EXPECT_NE(table.find("2 @ 20.00"), std::string::npos);
  EXPECT_NE(table.find("predictive"), std::string::npos);
  const auto row = cost_row(table, AnalyticsType::kPredictive);
  ASSERT_EQ(row.size(), kPillarCount);
  EXPECT_EQ(row[static_cast<std::size_t>(Pillar::kApplications)], "2 @ 20.00");
  // Untouched cells render as "-".
  EXPECT_NE(table.find("-"), std::string::npos);
}

TEST(CellCosts, MultiCellCapabilityLandsInItsFirstCell) {
  // pred.spectral's catalog row lists two cells; its runs count once, in
  // the first: building-infrastructure x predictive.
  obs::MetricsRegistry reg;
  reg.histogram("oda_analytics_run_seconds", "runs", std::vector<double>{1},
                {{"capability", "pred.spectral"}})
      .observe(0.004);
  const std::string table = render_cell_costs(reg.snapshot());
  for (const AnalyticsType type : kAllTypes) {
    const auto row = cost_row(table, type);
    ASSERT_EQ(row.size(), kPillarCount) << to_string(type);
    for (const Pillar pillar : kAllPillars) {
      const bool home = type == AnalyticsType::kPredictive &&
                        pillar == Pillar::kBuildingInfrastructure;
      EXPECT_EQ(row[static_cast<std::size_t>(pillar)], home ? "1 @ 4.00" : "-")
          << to_string(type) << "/" << to_string(pillar);
    }
  }
}

TEST(CellCosts, CapabilityOutsideCatalogIsSkipped) {
  obs::MetricsRegistry reg;
  reg.histogram("oda_analytics_run_seconds", "runs", std::vector<double>{1},
                {{"capability", "unit.cell"}})
      .observe(0.004);
  const std::string table = render_cell_costs(reg.snapshot());
  for (const AnalyticsType type : kAllTypes) {
    EXPECT_EQ(cost_row(table, type),
              std::vector<std::string>(kPillarCount, "-"))
        << to_string(type);
  }
}

}  // namespace
}  // namespace oda::core
