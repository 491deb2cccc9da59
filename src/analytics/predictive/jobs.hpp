// Job runtime prediction ([30],[31],[34],[35],[52],[53]): learn from
// completed jobs, predict the runtime of newly submitted ones from their
// observable submission features (user, size, requested walltime, queue,
// submit hour — never the hidden ground truth).
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "math/knn.hpp"
#include "sim/scheduler.hpp"
#include "sim/workload.hpp"

namespace oda::analytics {

/// Observable submission features of a job.
std::vector<double> submission_features(const sim::JobSpec& spec);

/// Per-user recent-history heuristic (the classic production baseline:
/// "this user's jobs usually run X") + kNN fallback on features.
class JobRuntimePredictor {
 public:
  struct Params {
    std::size_t user_history = 8;  // recent runtimes kept per user
    std::size_t knn_k = 7;
    /// Quantile of history used (high = conservative, fewer underestimates).
    double quantile = 0.75;
  };
  JobRuntimePredictor() : JobRuntimePredictor(Params{}) {}
  explicit JobRuntimePredictor(Params params);

  /// Learns from a completed job.
  void observe(const sim::JobRecord& record);
  std::size_t observed() const { return observed_; }

  struct Estimate {
    double runtime_s = 0.0;
    const char* source = "";  // "user-history" | "knn" | "request"
  };
  /// Prediction, always capped by the requested walltime.
  Estimate predict(const sim::JobSpec& spec) const;

 private:
  Params params_;
  std::map<std::string, std::vector<double>> user_runtimes_;
  math::KnnRegressor knn_;
  std::size_t observed_ = 0;
};

/// Accuracy report for runtime predictions.
struct PredictionScore {
  double mae_s = 0.0;
  double mape = 0.0;
  double underestimate_rate = 0.0;  // predictions below actual (bad for EASY)
  /// Improvement of MAE over using the user's walltime request.
  double improvement_vs_request = 0.0;
  std::size_t jobs = 0;
};

/// Trains on the first `train_fraction` of records (submit-time order) and
/// scores on the rest.
PredictionScore evaluate_runtime_predictor(
    std::span<const sim::JobRecord> records, double train_fraction = 0.6,
    const JobRuntimePredictor::Params& params = {});

}  // namespace oda::analytics
