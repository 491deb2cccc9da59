#include "telemetry/alerts.hpp"

#include <unordered_map>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "obs/metrics.hpp"

namespace oda::telemetry {

const char* alert_severity_name(AlertSeverity s) {
  switch (s) {
    case AlertSeverity::kInfo: return "info";
    case AlertSeverity::kWarning: return "warning";
    case AlertSeverity::kCritical: return "critical";
  }
  return "?";
}

void AlertEngine::add_rule(AlertRule rule) {
  ODA_REQUIRE(!rule.name.empty(), "alert rule needs a name");
  rules_.push_back(std::move(rule));
}

void AlertEngine::evict_history() {
  // Pin entries still referenced by an active state: their records are
  // updated in place when the alert clears.
  std::vector<bool> pinned(history_.size(), false);
  for (const auto& [key, st] : state_) {
    if (st.alert_active) pinned[st.history_index] = true;
  }
  // Evict oldest unpinned entries down to 3/4 of the cap, so eviction runs
  // in amortized batches rather than on every subsequent alert.
  const std::size_t target = kHistoryCapacity - kHistoryCapacity / 4;
  std::size_t to_drop = history_.size() > target ? history_.size() - target : 0;
  std::vector<Alert> kept;
  kept.reserve(history_.size());
  std::unordered_map<std::size_t, std::size_t> remap;
  remap.reserve(history_.size());
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < history_.size(); ++i) {
    if (to_drop > 0 && !pinned[i]) {
      --to_drop;
      ++dropped;
      continue;
    }
    remap[i] = kept.size();
    kept.push_back(std::move(history_[i]));
  }
  if (dropped == 0) return;  // everything pinned: history may exceed the cap
  history_ = std::move(kept);
  for (auto& [key, st] : state_) {
    const auto it = remap.find(st.history_index);
    // Only active states dereference history_index; their entries are
    // pinned, so this lookup always succeeds for them.
    st.history_index = it != remap.end() ? it->second : 0;
  }
  evicted_ += dropped;
  obs::MetricsRegistry::global()
      .counter("oda_alerts_history_evicted_total",
               "Alerts evicted from the bounded history")
      .inc(dropped);
}

bool AlertEngine::violates(const AlertRule& rule, double value) {
  return rule.comparison == AlertComparison::kAbove ? value > rule.threshold
                                                    : value < rule.threshold;
}

bool AlertEngine::cleared(const AlertRule& rule, double value) {
  return rule.comparison == AlertComparison::kAbove
             ? value < rule.threshold - rule.hysteresis
             : value > rule.threshold + rule.hysteresis;
}

void AlertEngine::observe(const Reading& reading) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const AlertRule& rule = rules_[i];
    if (!glob_match(rule.sensor_pattern, reading.path)) continue;
    RuleState& st = state_[{i, reading.path}];
    const double value = reading.sample.value;
    const TimePoint now = reading.sample.time;

    if (!st.alert_active) {
      if (violates(rule, value)) {
        if (st.violation_start == kTimeMin) st.violation_start = now;
        if (now - st.violation_start >= rule.hold) {
          st.alert_active = true;
          Alert alert;
          alert.rule = rule.name;
          alert.sensor = reading.path;
          alert.severity = rule.severity;
          alert.raised_at = now;
          alert.value = value;
          st.history_index = history_.size();
          history_.push_back(alert);
          if (history_.size() > kHistoryCapacity) evict_history();
          if (callback_) callback_(alert);
        }
      } else {
        st.violation_start = kTimeMin;
      }
    } else if (cleared(rule, value)) {
      st.alert_active = false;
      st.violation_start = kTimeMin;
      Alert& alert = history_[st.history_index];
      alert.cleared = true;
      alert.cleared_at = now;
      if (callback_) callback_(alert);
    }
  }
}

void AlertEngine::attach(MessageBus& bus) {
  for (const auto& rule : rules_) {
    bus.subscribe(rule.sensor_pattern,
                  [this](const Reading& r) { observe(r); });
  }
}

std::vector<Alert> AlertEngine::active() const {
  std::vector<Alert> out;
  for (const auto& [key, st] : state_) {
    if (st.alert_active) out.push_back(history_[st.history_index]);
  }
  return out;
}

std::size_t AlertEngine::active_count() const {
  std::size_t n = 0;
  for (const auto& [key, st] : state_) {
    if (st.alert_active) ++n;
  }
  return n;
}

}  // namespace oda::telemetry
