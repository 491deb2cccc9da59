// Fault injection with ground truth. Two families:
//  * sensor faults — applied as an overlay when telemetry is read (the
//    component keeps operating correctly, only its reading lies);
//  * component faults — applied to the physical model (fan failure, pump
//    degradation, ...) so real physical symptoms propagate into telemetry.
// Every injected fault is recorded with its active window, which is what
// lets the benchmark harness score diagnostic analytics (precision/recall).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"

namespace oda::sim {

enum class FaultKind {
  // Sensor-level (overlay on readings).
  kSensorStuck = 0,   // reading frozen at the value when the fault began
  kSensorDrift,       // reading drifts linearly (magnitude = units/hour)
  kSensorSpike,       // intermittent large spikes (magnitude = spike size)
  kSensorNoise,       // extra gaussian noise (magnitude = stddev)
  // Sensor-level read faults (the *read itself* fails or stalls; the value,
  // when one is produced, is unaffected).
  kSensorDropout,     // read yields no value (magnitude = per-read failure
                      // probability, clamped to [0,1])
  kSensorStall,       // read costs simulated latency (magnitude = seconds,
                      // jittered ±20%); consumers enforce their own deadline
  // Component-level (physical behaviour changes).
  kFanFailure,        // target = node path
  kThermalDegradation,  // target = node path; magnitude = R_th multiplier
  kPumpDegradation,   // magnitude = power/inertia multiplier
  kChillerFouling,    // magnitude = COP penalty
  kNetworkDegradation,  // target = rack index as string; magnitude = capacity factor
};

/// True for the kinds applied as sensor-reading overlays or read faults.
bool is_sensor_fault(FaultKind k);
/// True for the kinds that affect the read outcome (dropout/stall) rather
/// than the value.
bool is_read_fault(FaultKind k);

/// Outcome modifiers for one sensor read attempt (see read_fault_at()).
struct ReadFault {
  bool dropout = false;      // the read produced no value
  double stall_seconds = 0.0;  // simulated latency this attempt cost
};

struct FaultEvent {
  FaultKind kind{};
  /// Sensor path for sensor faults; component selector otherwise.
  std::string target;
  TimePoint start = 0;
  TimePoint end = 0;
  double magnitude = 1.0;

  bool active_at(TimePoint t) const { return t >= start && t < end; }
};

/// Applies sensor-fault overlays and drives component fault hooks. The
/// cluster registers one apply/clear callback pair per component-fault kind.
///
/// Sensor faults are indexed per sensor: every sensor bound through
/// bind_sensors() owns a list of the event indices that target it, in
/// schedule order, which schedule() appends to. A read looks its sensor's
/// list up by dense handle and walks only that list, never the whole
/// schedule, with no string work at all. A sensor fault whose target names
/// no bound sensor is kept in events() but never read.
class FaultInjector {
 public:
  using ComponentHook = std::function<void(const FaultEvent&, bool activate)>;
  /// Maps a target path to the dense handle of the sensor it names, or
  /// nullopt when no sensor has that path.
  using SensorResolver =
      std::function<std::optional<std::size_t>(const std::string&)>;

  FaultInjector() = default;
  // Movable: the stuck-state mutex is not moved (the destination gets a
  // fresh one), but the source's mutex IS taken while its stuck state is
  // moved out, so a reader concurrently applying overlays on the source
  // observes either the full state or the moved-from empty vectors — never
  // a half-moved vector.
  FaultInjector(FaultInjector&& other) noexcept;
  FaultInjector& operator=(FaultInjector&& other) noexcept;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Appends `event`; a sensor fault also joins its target's event list.
  void schedule(FaultEvent event);
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Declares `count` sensors addressed by dense handles 0..count-1, named
  /// through `resolve`, and rebuilds every sensor's event list. Sensor
  /// faults on targets `resolve` does not know are left out of every list.
  /// Call before reads start.
  void bind_sensors(std::size_t count, SensorResolver resolve);

  /// Registers the handler invoked when a component fault starts/ends.
  void set_component_hook(ComponentHook hook) { hook_ = std::move(hook); }

  /// Activates/deactivates component faults crossing boundaries in
  /// (prev, now].
  void step(TimePoint prev, TimePoint now);

  /// Transforms a raw sensor reading according to the sensor faults active
  /// at `now` for the sensor with handle `sensor` (see bind_sensors()).
  /// Thread-safe for concurrent readers as long as each caller brings its
  /// own Rng (the collector's parallel read path does) and no thread is
  /// mutating the schedule; the lazily captured stuck-fault state is
  /// internally locked.
  double apply_sensor_faults(std::size_t sensor, double raw, TimePoint now,
                             Rng& rng) const {
    ODA_REQUIRE(sensor < bound_sensors_, "unbound sensor handle");
    const EventList& list = target_lists_[sensor];
    return list.empty() ? raw : apply_overlays(list, raw, now, rng);
  }

  /// Rolls the read-fault dice for one read attempt on `sensor` at `now`:
  /// dropout faults fail the read with their magnitude as probability, stall
  /// faults add jittered simulated latency. Draws from `rng` only while a
  /// read fault is active on the sensor, so fault-free runs consume an
  /// identical random stream to a build without this feature.
  /// Thread-safety matches apply_sensor_faults().
  ReadFault read_fault_at(std::size_t sensor, TimePoint now, Rng& rng) const {
    ODA_REQUIRE(sensor < bound_sensors_, "unbound sensor handle");
    const EventList& list = target_lists_[sensor];
    return list.empty() ? ReadFault{} : roll_read_faults(list, now, rng);
  }

 private:
  using EventList = std::vector<std::uint32_t>;

  /// Adds sensor-fault event `i` to its target sensor's list, if any.
  void index_event(std::size_t i);
  double apply_overlays(const EventList& list, double raw, TimePoint now,
                        Rng& rng) const;
  ReadFault roll_read_faults(const EventList& list, TimePoint now,
                             Rng& rng) const;

  std::vector<FaultEvent> events_;
  std::vector<bool> activated_;  // component faults currently applied
  ComponentHook hook_;
  SensorResolver resolve_;
  // Per-sensor sensor-fault event indices, in schedule order (slot ==
  // handle).
  std::vector<EventList> target_lists_;
  std::size_t bound_sensors_ = 0;
  // Per stuck-fault frozen value, keyed by event index (lazily captured
  // during reads, so guarded for the parallel-collector path; only touched
  // when a stuck fault targets the path being read). Leaf lock: nothing is
  // acquired while it is held, so it carries no lock-order rank.
  mutable Mutex stuck_mu_;
  mutable std::vector<double> stuck_values_ ODA_GUARDED_BY(stuck_mu_);
  mutable std::vector<bool> stuck_captured_ ODA_GUARDED_BY(stuck_mu_);
};

}  // namespace oda::sim
