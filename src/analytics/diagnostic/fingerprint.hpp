// Application fingerprinting (Taxonomist [33], DeMasi et al. [36]):
// classify a job from the statistical signature of its node telemetry, in
// particular flagging crypto-miners.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "math/decision_tree.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/store.hpp"

namespace oda::analytics {

/// Extracts the telemetry signature of a completed job: statistics of its
/// nodes' cpu/mem/net/io counters over the job's runtime.
std::vector<double> job_signature(const telemetry::TimeSeriesStore& store,
                                  const sim::JobRecord& record,
                                  const std::vector<std::string>& node_prefixes,
                                  Duration bucket = kMinute);

class ApplicationFingerprinter {
 public:
  struct Params {
    std::size_t forest_trees = 40;
  };
  ApplicationFingerprinter() : ApplicationFingerprinter(Params{}) {}
  explicit ApplicationFingerprinter(Params params);

  /// Adds a labeled training job (label = application/class name).
  void add_training(const std::string& label, std::vector<double> signature);
  /// Trains the random forest.
  void train(Rng& rng);

  struct Prediction {
    std::string label;
    double confidence = 0.0;
  };
  /// Random-forest prediction (after train()).
  Prediction predict_forest(const std::vector<double>& signature) const;

 private:
  Params params_;
  std::vector<math::LabeledSample> samples_;
  std::map<std::string, std::size_t> label_index_;
  std::vector<std::string> index_label_;
  std::optional<math::RandomForest> forest_;
};

}  // namespace oda::analytics
