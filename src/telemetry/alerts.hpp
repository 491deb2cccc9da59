// Threshold alerting — the automated-alert feature of descriptive dashboards
// (Table I, descriptive row). Rules fire when a sensor violates a bound for
// a sustained hold time, and clear with hysteresis.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "telemetry/bus.hpp"
#include "telemetry/sample.hpp"

namespace oda::telemetry {

enum class AlertSeverity { kInfo, kWarning, kCritical };
enum class AlertComparison { kAbove, kBelow };

const char* alert_severity_name(AlertSeverity s);

struct AlertRule {
  std::string name;
  std::string sensor_pattern;  // glob
  AlertComparison comparison = AlertComparison::kAbove;
  double threshold = 0.0;
  /// Violation must persist this long before the alert fires.
  Duration hold = 0;
  /// Value must re-cross threshold ± hysteresis before the alert clears.
  double hysteresis = 0.0;
  AlertSeverity severity = AlertSeverity::kWarning;
};

struct Alert {
  std::string rule;
  std::string sensor;
  AlertSeverity severity = AlertSeverity::kWarning;
  TimePoint raised_at = 0;
  double value = 0.0;
  bool cleared = false;
  TimePoint cleared_at = 0;
};

/// Feed readings (directly or via a bus subscription); active/fired alerts
/// come out. Deterministic and single-threaded by design — wire it behind
/// the bus if concurrent delivery is needed.
class AlertEngine {
 public:
  using AlertCallback = std::function<void(const Alert&)>;

  void add_rule(AlertRule rule);
  const std::vector<AlertRule>& rules() const { return rules_; }

  /// Processes one reading; fires/clears alerts as needed.
  void observe(const Reading& reading);
  /// Convenience: subscribes to the bus for each rule's pattern.
  void attach(MessageBus& bus);

  void set_callback(AlertCallback cb) { callback_ = std::move(cb); }

  /// Retained history cap. When it is exceeded the oldest *cleared* alerts
  /// are evicted (active alerts are pinned — their records are still being
  /// updated); long runs therefore hold bounded memory instead of growing
  /// forever.
  static constexpr std::size_t kHistoryCapacity = 4096;
  /// Alerts evicted from history so far.
  std::uint64_t history_evicted() const { return evicted_; }

  std::vector<Alert> active() const;
  const std::vector<Alert>& history() const { return history_; }
  std::size_t active_count() const;

 private:
  struct RuleState {
    TimePoint violation_start = kTimeMin;  // kTimeMin = not violating
    bool alert_active = false;
    std::size_t history_index = 0;
  };

  static bool violates(const AlertRule& rule, double value);
  static bool cleared(const AlertRule& rule, double value);
  /// Evicts oldest cleared alerts until history fits the cap, remapping
  /// every RuleState::history_index so active alerts stay valid.
  void evict_history();

  std::vector<AlertRule> rules_;
  // State per (rule index, sensor path).
  std::map<std::pair<std::size_t, std::string>, RuleState> state_;
  std::vector<Alert> history_;
  std::uint64_t evicted_ = 0;
  AlertCallback callback_;
};

}  // namespace oda::telemetry
