#include "analytics/predictive/jobs.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "common/stats.hpp"

#include "obs/cell.hpp"

namespace oda::analytics {

std::vector<double> submission_features(const sim::JobSpec& spec) {
  // Stable user hash folded to a modest range; queue one-hot collapsed to an
  // ordinal; hour of day as a cyclic pair.
  const double user_code = static_cast<double>(
      std::hash<std::string>{}(spec.user) % 1024);
  const double queue_code = spec.queue == "small"    ? 0.0
                            : spec.queue == "medium" ? 1.0
                                                     : 2.0;
  const double hour = static_cast<double>((spec.submit_time % kDay)) /
                      static_cast<double>(kHour);
  return {
      user_code / 1024.0,
      static_cast<double>(spec.nodes_requested),
      std::log(static_cast<double>(std::max<Duration>(spec.walltime_requested, 1))),
      queue_code,
      std::sin(2.0 * M_PI * hour / 24.0),
      std::cos(2.0 * M_PI * hour / 24.0),
  };
}

JobRuntimePredictor::JobRuntimePredictor(Params params) : params_(params) {
  ODA_REQUIRE(params.quantile > 0.0 && params.quantile < 1.0,
              "quantile must be in (0,1)");
}

void JobRuntimePredictor::observe(const sim::JobRecord& record) {
  const double runtime = static_cast<double>(record.run_time());
  auto& hist = user_runtimes_[record.spec.user];
  hist.push_back(runtime);
  if (hist.size() > params_.user_history) hist.erase(hist.begin());
  knn_.add(submission_features(record.spec), runtime);
  ++observed_;
}

JobRuntimePredictor::Estimate JobRuntimePredictor::predict(
    const sim::JobSpec& spec) const {
  ODA_CELL_SCOPE("pred.runtime");
  Estimate est;
  const double cap = static_cast<double>(spec.walltime_requested);
  const auto it = user_runtimes_.find(spec.user);
  if (it != user_runtimes_.end() && it->second.size() >= 3) {
    est.runtime_s = std::min(quantile(it->second, params_.quantile), cap);
    est.source = "user-history";
    return est;
  }
  if (knn_.size() >= params_.knn_k) {
    est.runtime_s = std::min(
        knn_.predict_quantile(submission_features(spec), params_.knn_k,
                              params_.quantile),
        cap);
    est.source = "knn";
    return est;
  }
  est.runtime_s = cap;
  est.source = "request";
  return est;
}

PredictionScore evaluate_runtime_predictor(
    std::span<const sim::JobRecord> records, double train_fraction,
    const JobRuntimePredictor::Params& params) {
  ODA_REQUIRE(train_fraction > 0.0 && train_fraction < 1.0,
              "train fraction in (0,1)");
  PredictionScore score;
  if (records.size() < 10) return score;

  std::vector<sim::JobRecord> ordered(records.begin(), records.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const sim::JobRecord& a, const sim::JobRecord& b) {
              return a.spec.submit_time < b.spec.submit_time;
            });

  const auto split_at =
      static_cast<std::size_t>(train_fraction * static_cast<double>(ordered.size()));
  JobRuntimePredictor predictor(params);
  for (std::size_t i = 0; i < split_at; ++i) predictor.observe(ordered[i]);

  double abs_sum = 0.0, ape_sum = 0.0, request_abs_sum = 0.0;
  std::size_t under = 0, n = 0;
  for (std::size_t i = split_at; i < ordered.size(); ++i) {
    const auto& r = ordered[i];
    const double actual = static_cast<double>(r.run_time());
    if (actual <= 0.0) continue;
    const auto est = predictor.predict(r.spec);
    abs_sum += std::abs(est.runtime_s - actual);
    ape_sum += std::abs(est.runtime_s - actual) / actual;
    request_abs_sum +=
        std::abs(static_cast<double>(r.spec.walltime_requested) - actual);
    if (est.runtime_s < actual) ++under;
    ++n;
    // Online learning: fold the job in once "finished".
    predictor.observe(r);
  }
  if (n == 0) return score;
  score.jobs = n;
  score.mae_s = abs_sum / static_cast<double>(n);
  score.mape = ape_sum / static_cast<double>(n);
  score.underestimate_rate = static_cast<double>(under) / static_cast<double>(n);
  const double request_mae = request_abs_sum / static_cast<double>(n);
  score.improvement_vs_request =
      request_mae > 0.0 ? 1.0 - score.mae_s / request_mae : 0.0;
  return score;
}

}  // namespace oda::analytics
