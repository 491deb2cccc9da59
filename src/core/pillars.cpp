#include "core/pillars.hpp"

namespace oda::core {

namespace {

constexpr std::array<PillarTraits, kPillarCount> kPillarTraits = {{
    {Pillar::kBuildingInfrastructure, "building-infrastructure",
     "Support infrastructure needed to run the HPC systems and the data "
     "center as a whole: cooling and power distribution machinery.",
     "cooling loop, chiller, cooling tower, pumps, PDUs/UPS, utility meter"},
    {Pillar::kSystemHardware, "system-hardware",
     "Hardware components of the HPC system: boards and firmware, CPUs, "
     "GPUs, memory, system-internal cooling, network equipment.",
     "compute nodes, CPUs/GPUs, node fans, NICs, rack uplinks"},
    {Pillar::kSystemSoftware, "system-software",
     "System-level software stack: management software, resource manager "
     "and scheduler, node OS, tools and libraries.",
     "batch scheduler, job queue, placement policy, OS noise sources"},
    {Pillar::kApplications, "applications",
     "Individual workloads and the workload mix; the unit of work an HPC "
     "system exists to execute.",
     "user jobs, job phases, tunable application parameters"},
}};

constexpr std::array<TypeTraits, kTypeCount> kTypeTraits = {{
    {AnalyticsType::kDescriptive, "descriptive", "What happened?",
     Insight::kHindsight, false, 1, 1,
     "normalization, aggregation, KPIs, dashboards, threshold alerts"},
    {AnalyticsType::kDiagnostic, "diagnostic",
     "Why did it happen? What problem is this a symptom of?",
     Insight::kInsight, false, 2, 2,
     "anomaly detection, root-cause analysis, fingerprinting, classification"},
    {AnalyticsType::kPredictive, "predictive",
     "What will happen next?", Insight::kForesight, true, 3, 3,
     "forecasting, failure prediction, runtime prediction, what-if simulation"},
    {AnalyticsType::kPrescriptive, "prescriptive",
     "What is the best way to manage my resources?", Insight::kForesight,
     true, 4, 4,
     "optimization, control policies, auto-tuning, recommendation systems"},
}};

}  // namespace

const PillarTraits& traits(Pillar p) {
  return kPillarTraits.at(static_cast<std::size_t>(p));
}

const TypeTraits& traits(AnalyticsType t) {
  return kTypeTraits.at(static_cast<std::size_t>(t));
}

const char* to_string(Pillar p) { return traits(p).name; }
const char* to_string(AnalyticsType t) { return traits(t).name; }

const char* to_string(Insight i) {
  switch (i) {
    case Insight::kHindsight: return "hindsight";
    case Insight::kInsight: return "insight";
    case Insight::kForesight: return "foresight";
  }
  return "?";
}

}  // namespace oda::core
