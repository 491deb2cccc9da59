#include "analytics/diagnostic/fingerprint.hpp"

#include "common/error.hpp"
#include "common/stats.hpp"

namespace oda::analytics {

std::vector<double> job_signature(const telemetry::TimeSeriesStore& store,
                                  const sim::JobRecord& record,
                                  const std::vector<std::string>& node_prefixes,
                                  Duration bucket) {
  // Pool each counter across the job's nodes, then summarize. The signature
  // is size-independent so jobs of different node counts are comparable.
  static const char* kLeaves[] = {"cpu_util", "mem_bw_util", "net_util",
                                  "io_util", "power"};
  std::vector<double> signature;
  for (const char* leaf : kLeaves) {
    std::vector<double> pooled;
    for (std::size_t n : record.nodes) {
      ODA_REQUIRE(n < node_prefixes.size(), "node index out of range");
      const auto slice =
          store.query_aggregated(node_prefixes[n] + "/" + leaf,
                                 record.start_time, record.end_time, bucket,
                                 telemetry::Aggregation::kMean);
      pooled.insert(pooled.end(), slice.values.begin(), slice.values.end());
    }
    if (pooled.empty()) {
      signature.insert(signature.end(), {0.0, 0.0, 0.0, 0.0});
      continue;
    }
    signature.push_back(mean(pooled));
    signature.push_back(stddev(pooled));
    signature.push_back(quantile(pooled, 0.95));
    // Phase-structure indicator: lag-1 autocorrelation of the pooled trace.
    signature.push_back(autocorrelation(pooled, 1));
  }
  return signature;
}

ApplicationFingerprinter::ApplicationFingerprinter(Params params)
    : params_(params) {}

void ApplicationFingerprinter::add_training(const std::string& label,
                                            std::vector<double> signature) {
  auto [it, inserted] = label_index_.emplace(label, index_label_.size());
  if (inserted) index_label_.push_back(label);
  samples_.push_back({std::move(signature), it->second});
}

void ApplicationFingerprinter::train(Rng& rng) {
  ODA_REQUIRE(label_index_.size() >= 2, "need at least two labels to train");
  math::RandomForest::Params fp;
  fp.n_trees = params_.forest_trees;
  forest_ = math::RandomForest::fit(samples_, label_index_.size(), fp, rng);
}

ApplicationFingerprinter::Prediction ApplicationFingerprinter::predict_forest(
    const std::vector<double>& signature) const {
  ODA_REQUIRE(forest_.has_value(), "forest not trained");
  const auto probs = forest_->predict_proba(signature);
  Prediction p;
  std::size_t best = 0;
  for (std::size_t i = 1; i < probs.size(); ++i) {
    if (probs[i] > probs[best]) best = i;
  }
  p.label = index_label_[best];
  p.confidence = probs[best];
  return p;
}

}  // namespace oda::analytics
