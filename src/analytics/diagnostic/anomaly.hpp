// Diagnostic-pillar anomaly detection (Table I, diagnostic row).
//
// Streaming detectors score a single sensor sample-by-sample; multivariate
// detectors (isolation forest, PCA reconstruction) score feature vectors
// built from sliding windows over many sensors — the setup of Tuncer et
// al. [16] and Borghesi et al. [17]. A NodeAnomalyMonitor sweeps every node
// and produces per-node verdicts, and the evaluation helpers score any
// detector against injected-fault ground truth.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "math/isolation_forest.hpp"
#include "math/pca.hpp"
#include "telemetry/store.hpp"

namespace oda::analytics {

/// Streaming univariate detector: feed samples, read back an anomaly score
/// (0 = normal; >= 1 = at the detection threshold).
class StreamingDetector {
 public:
  virtual ~StreamingDetector() = default;
  virtual void observe(double value) = 0;
  virtual double score() const = 0;
  virtual const char* name() const = 0;
  bool anomalous() const { return score() >= 1.0; }
};

/// |z| of the newest sample against a trailing window, normalized by the
/// detection threshold (z_threshold).
class ZScoreDetector : public StreamingDetector {
 public:
  ZScoreDetector(std::size_t window, double z_threshold = 4.0);
  void observe(double value) override;
  double score() const override { return score_; }
  const char* name() const override { return "zscore"; }

 private:
  RollingWindow window_;
  double z_threshold_;
  double score_ = 0.0;
};

/// Robust variant: median/MAD instead of mean/stddev; immune to the
/// contamination of the window by the anomaly itself.
class MadDetector : public StreamingDetector {
 public:
  MadDetector(std::size_t window, double threshold = 5.0);
  void observe(double value) override;
  double score() const override { return score_; }
  const char* name() const override { return "mad"; }

 private:
  RollingWindow window_;
  double threshold_;
  double score_ = 0.0;
};

/// EWMA control chart: deviation of the EWMA from a long-run baseline in
/// units of the EWMA control limit.
class EwmaDetector : public StreamingDetector {
 public:
  explicit EwmaDetector(double alpha = 0.1, double limit_sigma = 4.0);
  void observe(double value) override;
  double score() const override { return score_; }
  const char* name() const override { return "ewma"; }

 private:
  Ewma fast_;
  RunningStats baseline_;
  double limit_sigma_;
  double score_ = 0.0;
};

/// Stuck-at detector: scores how long the signal has been exactly constant
/// relative to the expected variability.
class StuckSensorDetector : public StreamingDetector {
 public:
  explicit StuckSensorDetector(std::size_t max_constant_run = 20);
  void observe(double value) override;
  double score() const override { return score_; }
  const char* name() const override { return "stuck"; }

 private:
  std::size_t max_run_;
  std::size_t run_ = 0;
  double last_ = 0.0;
  bool has_last_ = false;
  double score_ = 0.0;
};

// ---------------------------------------------------------------------------
// Multivariate window-feature detectors.
// ---------------------------------------------------------------------------

/// Reusable buffers for column_features(), so a caller that featurizes many
/// columns allocates once, not per column.
struct FeatureScratch {
  std::vector<double> values;  // the column's non-NaN cells
  std::vector<double> slopes;  // Theil-Sen pairwise slopes
};

/// Writes one sensor column's window features (mean, stddev, Theil-Sen
/// slope) over its non-NaN cells to `out`; zeros when every cell is NaN.
/// The statistical fingerprint NodeAnomalyMonitor scores per node.
void column_features(std::span<const double> column, FeatureScratch& scratch,
                     std::span<double, 3> out);

struct AnomalyVerdict {
  std::string subject;  // e.g. node path
  double score = 0.0;   // detector-specific; >= threshold means anomalous
  bool anomalous = false;
  /// Ensemble member attribution (each normalized so >= 1 fires): density
  /// outliers show in the forest, correlation violations in the PCA
  /// residual. Zero when the monitor has a single member.
  double forest_score = 0.0;
  double pca_score = 0.0;
};

/// Node anomaly monitor: an ensemble of an isolation forest (density
/// outliers) and PCA reconstruction error (correlation violations, e.g.
/// "temperature high while fan speed low") over per-node window features.
///
/// Features are *rack-relative* (each sensor bucket minus the concurrent
/// median of the node's rack peers — the correlation-wise-smoothing idea of
/// Netti et al. [47]): rack-common modes such as inlet-temperature shifts
/// cancel out, so one faulty node does not drag its whole rack over the
/// alarm threshold. This monitor does not flag rack-wide anomalies.
///
/// Both member scores are calibrated on the healthy training windows; the
/// reported score is the ensemble max, normalized so >= 1 means anomalous.
class NodeAnomalyMonitor {
 public:
  struct Params {
    std::vector<std::string> per_node_sensors = {
        "power", "cpu_temp", "cpu_util", "fan_speed", "mem_bw_util"};
    Duration window = 10 * kMinute;
    Duration bucket = kMinute;
    /// Margin over the calibrated healthy quantile before alarming.
    double calibration_margin = 1.15;
    double calibration_quantile = 0.99;
    std::size_t trees = 100;
    double pca_variance_target = 0.9;
  };

  NodeAnomalyMonitor(Params params, std::vector<std::string> node_prefixes);

  /// Learns the healthy baseline from [from, to): one training sample per
  /// node per window.
  void train(const telemetry::TimeSeriesStore& store, TimePoint from,
             TimePoint to, Rng& rng);
  bool trained() const { return forest_ != nullptr; }

  /// Scores every node over the window ending at `now`.
  std::vector<AnomalyVerdict> scan(const telemetry::TimeSeriesStore& store,
                                   TimePoint now) const;

  const Params& params() const { return params_; }

 private:
  /// Features per node: mean, stddev and slope per sensor.
  std::size_t feature_dim() const { return params_.per_node_sensors.size() * 3; }
  /// Rack-relative window features for every monitored node at once, one
  /// row of feature_dim() per node, row-major.
  std::vector<double> batch_features(const telemetry::TimeSeriesStore& store,
                                     TimePoint from, TimePoint to) const;
  /// Standardizes one node's features in place.
  void standardize(std::span<double> features) const;

  /// The `per_node_sensors.size() * nodes` series this monitor reads,
  /// sensor-major (sensor s of node n at s * nodes + n). Resolved once at
  /// construction: an id names a path, not a store, so it holds for every
  /// store and for series the store has not seen yet.
  std::span<const telemetry::SeriesId> sensor_ids(std::size_t sensor) const;

  Params params_;
  std::vector<std::string> node_prefixes_;
  std::vector<telemetry::SeriesId> ids_;
  /// Node indices per rack (first path component), racks in name order.
  std::vector<std::vector<std::size_t>> rack_members_;
  std::unique_ptr<math::IsolationForest> forest_;
  std::unique_ptr<math::Pca> pca_;
  // Healthy-calibrated normalizers: member score / threshold.
  double forest_threshold_ = 1.0;
  double pca_threshold_ = 1.0;
  // Per-feature standardization fitted on healthy training windows.
  std::vector<double> feature_mean_;
  std::vector<double> feature_std_;
};

// ---------------------------------------------------------------------------
// Evaluation against ground truth.
// ---------------------------------------------------------------------------

struct DetectionMetrics {
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;
  std::size_t true_negatives = 0;

  double precision() const;
  double recall() const;
  double f1() const;
};

/// Scores point predictions against boolean ground truth. (std::vector<bool>
/// because the bit-packed specialization cannot be viewed as a span.)
DetectionMetrics score_detection(const std::vector<bool>& predicted,
                                 const std::vector<bool>& truth);

/// Area under the ROC curve for continuous scores vs boolean truth.
double roc_auc(std::span<const double> scores, const std::vector<bool>& truth);

}  // namespace oda::analytics
