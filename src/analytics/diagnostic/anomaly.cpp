#include "analytics/diagnostic/anomaly.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "math/regression.hpp"
#include "telemetry/agg_kernels.hpp"

#include "obs/cell.hpp"

namespace oda::analytics {

// ------------------------------------------------------------ ZScoreDetector

ZScoreDetector::ZScoreDetector(std::size_t window, double z_threshold)
    : window_(window), z_threshold_(z_threshold) {
  ODA_REQUIRE(z_threshold > 0.0, "z threshold must be positive");
}

void ZScoreDetector::observe(double value) {
  if (window_.size() >= 8) {
    const double sd = window_.stddev();
    // Floor the scale so constant baselines do not divide by ~zero.
    const double scale = std::max(sd, 1e-6 + 0.001 * std::abs(window_.mean()));
    score_ = std::abs(value - window_.mean()) / (scale * z_threshold_);
  } else {
    score_ = 0.0;
  }
  window_.add(value);
}

// --------------------------------------------------------------- MadDetector

MadDetector::MadDetector(std::size_t window, double threshold)
    : window_(window), threshold_(threshold) {
  ODA_REQUIRE(threshold > 0.0, "MAD threshold must be positive");
}

void MadDetector::observe(double value) {
  if (window_.size() >= 8) {
    const auto vals = window_.to_vector();
    const double med = median(vals);
    const double scale =
        std::max(mad(vals), 1e-6 + 0.001 * std::abs(med));
    score_ = std::abs(value - med) / (scale * threshold_);
  } else {
    score_ = 0.0;
  }
  window_.add(value);
}

// -------------------------------------------------------------- EwmaDetector

EwmaDetector::EwmaDetector(double alpha, double limit_sigma)
    : fast_(alpha), limit_sigma_(limit_sigma) {
  ODA_REQUIRE(limit_sigma > 0.0, "EWMA limit must be positive");
}

void EwmaDetector::observe(double value) {
  fast_.add(value);
  baseline_.add(value);
  if (baseline_.count() >= 16 && baseline_.stddev() > 0.0) {
    // EWMA control limit: sigma * sqrt(alpha / (2 - alpha)).
    const double limit = limit_sigma_ * baseline_.stddev() *
                         std::sqrt(fast_.alpha() / (2.0 - fast_.alpha()));
    score_ = std::abs(fast_.mean() - baseline_.mean()) / std::max(limit, 1e-12);
  } else {
    score_ = 0.0;
  }
}

// ------------------------------------------------------- StuckSensorDetector

StuckSensorDetector::StuckSensorDetector(std::size_t max_constant_run)
    : max_run_(max_constant_run) {
  ODA_REQUIRE(max_constant_run > 0, "stuck run must be positive");
}

void StuckSensorDetector::observe(double value) {
  if (has_last_ && value == last_) {
    ++run_;
  } else {
    run_ = 0;
  }
  last_ = value;
  has_last_ = true;
  score_ = static_cast<double>(run_) / static_cast<double>(max_run_);
}

// ----------------------------------------------------------- window features

void column_features(std::span<const double> column, FeatureScratch& scratch,
                     std::span<double, 3> out) {
  std::vector<double>& values = scratch.values;
  values.clear();
  for (double v : column) {
    if (!std::isnan(v)) values.push_back(v);
  }
  if (values.empty()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  out[0] = mean(values);
  out[1] = stddev(values);
  out[2] = math::theil_sen_slope(values, scratch.slopes);
}

// --------------------------------------------------------- NodeAnomalyMonitor

NodeAnomalyMonitor::NodeAnomalyMonitor(Params params,
                                       std::vector<std::string> node_prefixes)
    : params_(std::move(params)), node_prefixes_(std::move(node_prefixes)) {
  ODA_REQUIRE(!node_prefixes_.empty(), "monitor needs nodes");
  ODA_REQUIRE(!params_.per_node_sensors.empty(), "monitor needs sensors");
  telemetry::SeriesInterner& interner = telemetry::SeriesInterner::global();
  ids_.reserve(params_.per_node_sensors.size() * node_prefixes_.size());
  for (const auto& leaf : params_.per_node_sensors) {
    for (const auto& prefix : node_prefixes_) {
      ids_.push_back(interner.intern(prefix + "/" + leaf));
    }
  }
  std::map<std::string, std::vector<std::size_t>> racks;
  for (std::size_t c = 0; c < node_prefixes_.size(); ++c) {
    racks[split(node_prefixes_[c], '/').front()].push_back(c);
  }
  for (auto& [rack, members] : racks) rack_members_.push_back(std::move(members));
}

std::span<const telemetry::SeriesId> NodeAnomalyMonitor::sensor_ids(
    std::size_t sensor) const {
  const std::size_t n_nodes = node_prefixes_.size();
  return std::span<const telemetry::SeriesId>(ids_).subspan(sensor * n_nodes,
                                                            n_nodes);
}

std::vector<double> NodeAnomalyMonitor::batch_features(
    const telemetry::TimeSeriesStore& store, TimePoint from,
    TimePoint to) const {
  const std::size_t n_nodes = node_prefixes_.size();
  const std::size_t dim = feature_dim();
  // Raw window features per node first: each series' window is bucketed
  // in place into one reused column, the cells its frame() column holds...
  const Duration bucket = params_.bucket;
  const auto n_buckets = static_cast<std::size_t>(
      std::max<TimePoint>(0, (to - from + bucket - 1) / bucket));
  std::vector<double> column(n_buckets);
  std::vector<double> features(n_nodes * dim);
  FeatureScratch scratch;
  for (std::size_t s_idx = 0; s_idx < params_.per_node_sensors.size(); ++s_idx) {
    const auto ids = sensor_ids(s_idx);
    for (std::size_t c = 0; c < n_nodes; ++c) {
      std::fill(column.begin(), column.end(),
                std::numeric_limits<double>::quiet_NaN());
      store.read_range(ids[c], from, to,
                       [&](std::span<const telemetry::Sample> a,
                           std::span<const telemetry::Sample> b) {
                         telemetry::bucket_aggregate_dense(
                             a, b, from, bucket, telemetry::Aggregation::kMean,
                             n_buckets, column.data());
                       });
      column_features(column, scratch,
                      std::span<double, 3>(&features[c * dim + s_idx * 3], 3));
    }
  }

  // ...then make each feature rack-relative by subtracting the rack's
  // 25%-trimmed mean of that feature. Working in *feature space* keeps a
  // faulty peer's oscillations in its own features only (a per-bucket
  // reference would jitter with every swing of a throttling neighbour),
  // while rack-common modes (inlet-temperature shifts) still cancel.
  std::vector<double> vals;
  for (std::size_t d = 0; d < dim; ++d) {
    for (const auto& members : rack_members_) {
      vals.clear();
      for (std::size_t c : members) vals.push_back(features[c * dim + d]);
      std::sort(vals.begin(), vals.end());
      const std::size_t trim = vals.size() / 4;
      double sum = 0.0;
      for (std::size_t i = trim; i < vals.size() - trim; ++i) sum += vals[i];
      const double reference =
          sum / static_cast<double>(vals.size() - 2 * trim);
      for (std::size_t c : members) features[c * dim + d] -= reference;
    }
  }
  return features;
}

void NodeAnomalyMonitor::standardize(std::span<double> features) const {
  ODA_REQUIRE(features.size() == feature_mean_.size(),
              "feature dimension changed between train and scan");
  for (std::size_t d = 0; d < features.size(); ++d) {
    features[d] = (features[d] - feature_mean_[d]) / feature_std_[d];
  }
}

void NodeAnomalyMonitor::train(const telemetry::TimeSeriesStore& store,
                               TimePoint from, TimePoint to, Rng& rng) {
  const std::size_t dim = feature_dim();
  std::vector<std::vector<double>> samples;
  for (TimePoint t = from + params_.window; t <= to; t += params_.window) {
    const auto batch = batch_features(store, t - params_.window, t);
    for (std::size_t r = 0; r < node_prefixes_.size(); ++r) {
      samples.emplace_back(batch.begin() + static_cast<std::ptrdiff_t>(r * dim),
                           batch.begin() +
                               static_cast<std::ptrdiff_t>((r + 1) * dim));
    }
  }
  ODA_REQUIRE(samples.size() >= 16, "not enough healthy windows to train");

  // Fit the standardization on the healthy windows, then standardize them.
  feature_mean_.assign(dim, 0.0);
  feature_std_.assign(dim, 0.0);
  for (const auto& s : samples) {
    for (std::size_t d = 0; d < dim; ++d) feature_mean_[d] += s[d];
  }
  for (double& m : feature_mean_) m /= static_cast<double>(samples.size());
  for (const auto& s : samples) {
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = s[d] - feature_mean_[d];
      feature_std_[d] += diff * diff;
    }
  }
  for (double& v : feature_std_) {
    v = std::sqrt(v / static_cast<double>(samples.size() - 1));
  }

  // Floor each feature's standardization scale at a fraction of the
  // sensor's natural fleet-wide variability. Under a very steady training
  // workload the healthy feature variance collapses toward zero, and
  // without the floor any physically insignificant ripple (a faulty peer
  // warming the shared rack inlet by tenths of a degree) scores as tens of
  // sigma on every node in the rack.
  constexpr double kScaleFloorFraction = 0.05;
  for (std::size_t s_idx = 0; s_idx < params_.per_node_sensors.size(); ++s_idx) {
    RunningStats fleet;
    const auto fleet_frame =
        store.frame(sensor_ids(s_idx), from, to, params_.window);
    for (std::size_t c = 0; c < fleet_frame.cols(); ++c) {
      for (double v : fleet_frame.column_values(c)) {
        if (!std::isnan(v)) fleet.add(v);
      }
    }
    const double scale =
        std::max(kScaleFloorFraction * fleet.stddev(),
                 1e-3 * std::abs(fleet.mean()) + 1e-9);
    const std::size_t base = s_idx * 3;  // mean, std, slope per sensor
    const double window_buckets =
        static_cast<double>(params_.window / params_.bucket);
    feature_std_[base + 0] = std::max(feature_std_[base + 0], scale);
    feature_std_[base + 1] = std::max(feature_std_[base + 1], scale);
    feature_std_[base + 2] =
        std::max(feature_std_[base + 2], scale / std::max(window_buckets, 1.0));
  }
  for (double& v : feature_std_) {
    if (v < 1e-9) v = 1.0;
  }
  for (auto& s : samples) standardize(s);

  math::IsolationForest::Params fp;
  fp.n_trees = params_.trees;
  forest_ = std::make_unique<math::IsolationForest>(
      math::IsolationForest::fit(samples, fp, rng));
  pca_ = std::make_unique<math::Pca>(math::Pca::fit(
      math::Matrix::from_rows(samples), 0, /*scale=*/false));
  // Keep components explaining the variance target; residual dimensions
  // carry the correlation structure whose violation flags faults.
  std::size_t keep = 1;
  double cum = 0.0, total = 0.0;
  for (double v : pca_->explained_variance()) total += v;
  for (std::size_t i = 0; i < pca_->explained_variance().size(); ++i) {
    cum += pca_->explained_variance()[i];
    keep = i + 1;
    if (total > 0.0 && cum / total >= params_.pca_variance_target) break;
  }
  // Keep at most 3/4 of the dimensions: with a near-complete basis the
  // healthy reconstruction error is numerical noise and the calibrated
  // threshold collapses, turning any rack-wide ripple into an astronomic
  // score.
  keep = std::min(keep, std::max<std::size_t>(1, dim * 3 / 4));
  pca_ = std::make_unique<math::Pca>(math::Pca::fit(
      math::Matrix::from_rows(samples), keep, /*scale=*/false));

  // Calibrate both members on the healthy score distribution: a fixed
  // global cut-off cannot serve heterogeneous fleets, and a high quantile
  // (not the max) keeps a handful of warm-up windows from dominating.
  std::vector<double> forest_scores, pca_errors;
  forest_scores.reserve(samples.size());
  pca_errors.reserve(samples.size());
  for (const auto& s : samples) {
    forest_scores.push_back(forest_->score(s));
    pca_errors.push_back(pca_->reconstruction_error(s));
  }
  forest_threshold_ = std::max(
      quantile(forest_scores, params_.calibration_quantile) *
          params_.calibration_margin,
      1e-6);
  // Features are standardized, so the floor is in z-units: healthy fleets
  // drift a few tenths of a sigma between training and scan as job phases
  // evolve, and faults land one to four orders of magnitude higher, so a
  // floor below ~0.75 only converts that benign drift into alarms.
  pca_threshold_ = std::max(
      quantile(pca_errors, params_.calibration_quantile) *
          params_.calibration_margin,
      0.75);
}

std::vector<AnomalyVerdict> NodeAnomalyMonitor::scan(
    const telemetry::TimeSeriesStore& store, TimePoint now) const {
  ODA_CELL_SCOPE("diag.node");
  ODA_REQUIRE(trained(), "scan before train");
  const std::size_t n_nodes = node_prefixes_.size();
  const std::size_t dim = feature_dim();
  auto rows = batch_features(store, now - params_.window, now);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    standardize(std::span<double>(rows).subspan(i * dim, dim));
  }
  std::vector<double> forest_scores(n_nodes);
  std::vector<double> pca_errors(n_nodes);
  forest_->score(rows, forest_scores);
  pca_->reconstruction_error(rows, pca_errors);
  std::vector<AnomalyVerdict> out;
  out.reserve(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    AnomalyVerdict v;
    v.subject = node_prefixes_[i];
    v.forest_score = forest_scores[i] / forest_threshold_;
    v.pca_score = pca_errors[i] / pca_threshold_;
    v.score = std::max(v.forest_score, v.pca_score);
    v.anomalous = v.score >= 1.0;
    out.push_back(std::move(v));
  }
  return out;
}

// ------------------------------------------------------------------- scoring

double DetectionMetrics::precision() const {
  const auto d = true_positives + false_positives;
  return d ? static_cast<double>(true_positives) / static_cast<double>(d) : 0.0;
}
double DetectionMetrics::recall() const {
  const auto d = true_positives + false_negatives;
  return d ? static_cast<double>(true_positives) / static_cast<double>(d) : 0.0;
}
double DetectionMetrics::f1() const {
  const double p = precision();
  const double r = recall();
  return (p + r) > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

DetectionMetrics score_detection(const std::vector<bool>& predicted,
                                 const std::vector<bool>& truth) {
  ODA_REQUIRE(predicted.size() == truth.size(), "detection size mismatch");
  DetectionMetrics m;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] && truth[i]) ++m.true_positives;
    else if (predicted[i] && !truth[i]) ++m.false_positives;
    else if (!predicted[i] && truth[i]) ++m.false_negatives;
    else ++m.true_negatives;
  }
  return m;
}

double roc_auc(std::span<const double> scores, const std::vector<bool>& truth) {
  ODA_REQUIRE(scores.size() == truth.size(), "auc size mismatch");
  // Rank-sum (Mann-Whitney) formulation with tie handling via average ranks.
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });
  std::vector<double> ranks(scores.size());
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  double pos_rank_sum = 0.0;
  std::size_t n_pos = 0;
  for (std::size_t k = 0; k < truth.size(); ++k) {
    if (truth[k]) {
      pos_rank_sum += ranks[k];
      ++n_pos;
    }
  }
  const std::size_t n_neg = truth.size() - n_pos;
  if (n_pos == 0 || n_neg == 0) return 0.5;
  const double u = pos_rank_sum - static_cast<double>(n_pos) *
                                      (static_cast<double>(n_pos) + 1.0) / 2.0;
  return u / (static_cast<double>(n_pos) * static_cast<double>(n_neg));
}

}  // namespace oda::analytics
