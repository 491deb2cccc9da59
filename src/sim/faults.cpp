#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace oda::sim {

bool is_sensor_fault(FaultKind k) {
  switch (k) {
    case FaultKind::kSensorStuck:
    case FaultKind::kSensorDrift:
    case FaultKind::kSensorSpike:
    case FaultKind::kSensorNoise:
    case FaultKind::kSensorDropout:
    case FaultKind::kSensorStall:
      return true;
    default:
      return false;
  }
}

bool is_read_fault(FaultKind k) {
  return k == FaultKind::kSensorDropout || k == FaultKind::kSensorStall;
}

FaultInjector::FaultInjector(FaultInjector&& other) noexcept
    : events_(std::move(other.events_)),
      activated_(std::move(other.activated_)),
      hook_(std::move(other.hook_)),
      resolve_(std::move(other.resolve_)),
      target_lists_(std::move(other.target_lists_)),
      bound_sensors_(std::exchange(other.bound_sensors_, 0)) {
  // Lock the source while stealing its stuck state: a reader still applying
  // overlays on `other` must not observe half-moved vectors. (The analysis
  // exempts constructors for *this* object's members; `other`'s guarded
  // members still require its lock.)
  MutexLock lock(other.stuck_mu_);
  stuck_values_ = std::move(other.stuck_values_);
  stuck_captured_ = std::move(other.stuck_captured_);
}

FaultInjector& FaultInjector::operator=(FaultInjector&& other) noexcept {
  if (this != &other) {
    events_ = std::move(other.events_);
    activated_ = std::move(other.activated_);
    hook_ = std::move(other.hook_);
    resolve_ = std::move(other.resolve_);
    target_lists_ = std::move(other.target_lists_);
    bound_sensors_ = std::exchange(other.bound_sensors_, 0);
    // Two sequential critical sections (never nested, so no ordering edge):
    // steal the source's stuck state under its lock, then install it under
    // ours.
    std::vector<double> values;
    std::vector<bool> captured;
    {
      MutexLock lock(other.stuck_mu_);
      values = std::move(other.stuck_values_);
      captured = std::move(other.stuck_captured_);
    }
    MutexLock lock(stuck_mu_);
    stuck_values_ = std::move(values);
    stuck_captured_ = std::move(captured);
  }
  return *this;
}

void FaultInjector::schedule(FaultEvent event) {
  ODA_REQUIRE(event.end > event.start, "fault window must be non-empty");
  events_.push_back(std::move(event));
  activated_.push_back(false);
  {
    MutexLock lock(stuck_mu_);
    stuck_values_.push_back(0.0);
    stuck_captured_.push_back(false);
  }
  index_event(events_.size() - 1);
}

void FaultInjector::bind_sensors(std::size_t count, SensorResolver resolve) {
  resolve_ = std::move(resolve);
  bound_sensors_ = count;
  target_lists_.assign(count, EventList{});
  for (std::size_t i = 0; i < events_.size(); ++i) index_event(i);
}

void FaultInjector::index_event(std::size_t i) {
  const FaultEvent& e = events_[i];
  if (!is_sensor_fault(e.kind) || !resolve_) return;
  const std::optional<std::size_t> handle = resolve_(e.target);
  if (!handle.has_value()) return;
  ODA_REQUIRE(*handle < bound_sensors_, "resolved handle out of range");
  target_lists_[*handle].push_back(static_cast<std::uint32_t>(i));
}

void FaultInjector::step(TimePoint prev, TimePoint now) {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    if (is_sensor_fault(e.kind)) continue;
    const bool should_be_active = e.active_at(now);
    if (should_be_active && !activated_[i]) {
      activated_[i] = true;
      if (hook_) hook_(e, true);
    } else if (!should_be_active && activated_[i] && now > prev) {
      activated_[i] = false;
      if (hook_) hook_(e, false);
    }
  }
}

double FaultInjector::apply_overlays(const EventList& list, double raw,
                                     TimePoint now, Rng& rng) const {
  double value = raw;
  for (const std::uint32_t i : list) {
    const FaultEvent& e = events_[i];
    if (is_read_fault(e.kind)) continue;
    if (!e.active_at(now)) {
      if (e.kind == FaultKind::kSensorStuck) {
        MutexLock lock(stuck_mu_);
        stuck_captured_[i] = false;  // re-arm for a later window
      }
      continue;
    }
    switch (e.kind) {
      case FaultKind::kSensorStuck: {
        MutexLock lock(stuck_mu_);
        if (!stuck_captured_[i]) {
          stuck_values_[i] = value;
          stuck_captured_[i] = true;
        }
        value = stuck_values_[i];
        break;
      }
      case FaultKind::kSensorDrift: {
        const double hours =
            static_cast<double>(now - e.start) / static_cast<double>(kHour);
        value += e.magnitude * hours;
        break;
      }
      case FaultKind::kSensorSpike:
        // ~5% of readings spike while the fault is active.
        if (rng.bernoulli(0.05)) value += e.magnitude;
        break;
      case FaultKind::kSensorNoise:
        value += rng.normal(0.0, e.magnitude);
        break;
      default:
        break;
    }
  }
  return value;
}

ReadFault FaultInjector::roll_read_faults(const EventList& list, TimePoint now,
                                          Rng& rng) const {
  ReadFault out;
  for (const std::uint32_t i : list) {
    const FaultEvent& e = events_[i];
    if (!is_read_fault(e.kind) || !e.active_at(now)) continue;
    switch (e.kind) {
      case FaultKind::kSensorDropout: {
        const double p = std::min(1.0, std::max(0.0, e.magnitude));
        if (rng.bernoulli(p)) out.dropout = true;
        break;
      }
      case FaultKind::kSensorStall:
        out.stall_seconds += e.magnitude * rng.uniform(0.8, 1.2);
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace oda::sim
