// The two axes of the ODA conceptual framework (paper Section III):
//  * the four pillars of energy-efficient HPC (Wilde et al. [3]) — *where*
//    an ODA capability acts;
//  * the four types of data analytics (Gartner/Lepenioti [2],[70]) — *what
//    kind of question* it answers.
// Their cross product is the 4x4 grid every capability in this library is
// classified against.
#pragma once

#include <array>

namespace oda::core {

enum class Pillar {
  kBuildingInfrastructure = 0,
  kSystemHardware = 1,
  kSystemSoftware = 2,
  kApplications = 3,
};
inline constexpr std::size_t kPillarCount = 4;
inline constexpr std::array<Pillar, kPillarCount> kAllPillars = {
    Pillar::kBuildingInfrastructure, Pillar::kSystemHardware,
    Pillar::kSystemSoftware, Pillar::kApplications};

enum class AnalyticsType {
  kDescriptive = 0,
  kDiagnostic = 1,
  kPredictive = 2,
  kPrescriptive = 3,
};
inline constexpr std::size_t kTypeCount = 4;
inline constexpr std::array<AnalyticsType, kTypeCount> kAllTypes = {
    AnalyticsType::kDescriptive, AnalyticsType::kDiagnostic,
    AnalyticsType::kPredictive, AnalyticsType::kPrescriptive};

/// Temporal orientation of an analytics type (paper Fig. 2 discussion).
enum class Insight { kHindsight, kInsight, kForesight };

struct PillarTraits {
  Pillar pillar;
  const char* name;
  const char* description;
  /// Example subsystems of this pillar in the simulated facility.
  const char* example_components;
};

struct TypeTraits {
  AnalyticsType type;
  const char* name;
  /// The operational question this type answers (paper Section III-B).
  const char* question;
  Insight insight;
  bool proactive;  // anticipates (true) vs reacts (false)
  /// Relative business value and implementation difficulty, 1..4 — the two
  /// coordinates of the Figure 2 staircase.
  int value_rank;
  int difficulty_rank;
  const char* typical_techniques;
};

const PillarTraits& traits(Pillar p);
const TypeTraits& traits(AnalyticsType t);
const char* to_string(Pillar p);
const char* to_string(AnalyticsType t);
const char* to_string(Insight i);

}  // namespace oda::core
