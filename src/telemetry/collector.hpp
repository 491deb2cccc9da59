// Collector: samples the simulated facility's sensors into the store and
// onto the bus — the LDMS/DCDB "sampler plugin" role. Sampling is organized
// in groups, each with its own glob filter and period (facility sensors are
// typically slower than node sensors), and the sensor reads of a pass can be
// spread across a thread pool. Every sensor read draws from its own random
// stream, so the output is the same with no pool and with a pool of any size.
//
// The read path is failure-aware (docs/RESILIENCE.md): every sensor read
// goes through a bounded retry loop (3 attempts, deterministic exponential
// backoff) under a 5 s simulated-latency deadline, behind a per-sensor
// three-state circuit breaker (closed -> open after 5 consecutive failed
// reads -> half-open probe after 120 s -> closed after 2 probe successes);
// the values are constants in collector.cpp. A failed or skipped read
// becomes an accounted gap — never a hang and never a silent hole:
// samples_expected() == samples_collected() + gaps_total() holds exactly.
// Outcomes feed an optional SensorHealthTracker.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "sim/cluster.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/health.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/series_id.hpp"
#include "telemetry/store.hpp"

namespace oda::obs {
class Counter;
class Gauge;
}  // namespace oda::obs

namespace oda::telemetry {

struct CollectorGroup {
  std::string name;
  std::string pattern;   // glob over sensor paths
  Duration period = 15;  // sampling period (multiple of sim dt recommended)
};

/// Backoff in simulated seconds before retry `retry_index` (0-based):
/// 0.25 s doubling per retry, jittered by +/-25% from `rng`. Deterministic
/// for a given index and Rng state.
double retry_backoff_s(int retry_index, Rng& rng);

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen, kHalfOpen };
const char* breaker_state_name(BreakerState s);

class Collector {
 public:
  /// Store and bus may be null if unused; pool may be null for serial reads.
  Collector(sim::ClusterSimulation& cluster, TimeSeriesStore* store,
            MessageBus* bus, ThreadPool* pool = nullptr);

  /// Adds a sampling group; returns the number of sensors it matched.
  /// A pattern matching zero sensors is almost always a config bug: it is
  /// warned about and exported as oda_collector_empty_groups.
  std::size_t add_group(CollectorGroup group);
  /// Convenience: one group covering every sensor at the given period.
  std::size_t add_all_sensors(Duration period);

  /// Samples every group whose period divides the current sim time. Call
  /// once per sim step (after cluster.step()).
  void collect();

  // -- resilience -------------------------------------------------------------
  /// Optional health tracker fed with every read outcome (may be null).
  /// Must outlive the collector or be reset to null first.
  void set_health_tracker(SensorHealthTracker* tracker) { health_ = tracker; }

  /// Breaker state for one sensor (kClosed if the path is unknown).
  BreakerState breaker_state(const std::string& path) const;
  /// Sensors whose breaker is currently open.
  std::size_t open_breakers() const {
    // relaxed: statistics gauge; synchronizes nothing.
    return static_cast<std::size_t>(
        open_breakers_.load(std::memory_order_relaxed));
  }

  // -- accounting --------------------------------------------------------------
  /// Successfully read samples fanned out across all groups. Atomic so
  /// dashboards may poll it while collect() runs on the pipeline thread.
  std::uint64_t samples_collected() const {
    // relaxed: monotonic statistics counter; synchronizes nothing.
    return samples_collected_.load(std::memory_order_relaxed);
  }
  /// Samples every due group *should* have produced (matched sensors per
  /// pass). Invariant: samples_expected() == samples_collected() +
  /// gaps_total().
  std::uint64_t samples_expected() const {
    // relaxed: monotonic statistics counter; synchronizes nothing.
    return samples_expected_.load(std::memory_order_relaxed);
  }
  /// Reads that produced no sample (dropout, deadline, breaker open).
  std::uint64_t gaps_total() const {
    // relaxed: monotonic statistics counter; synchronizes nothing.
    return gaps_total_.load(std::memory_order_relaxed);
  }
  /// Retry attempts taken beyond first attempts.
  std::uint64_t retries_total() const {
    // relaxed: monotonic statistics counter; synchronizes nothing.
    return retries_total_.load(std::memory_order_relaxed);
  }

 private:
  struct Group {
    CollectorGroup def;
    // Per matched sensor, resolved once at add_group(): the cluster's dense
    // sensor handle (also the index into breakers_) and the series id.
    std::vector<std::size_t> sensor_handles;
    std::vector<SeriesId> sensor_ids;
    obs::Counter* samples = nullptr;   // owned by the global registry
    obs::Counter* retries = nullptr;
    // Gap counters indexed by ReadOutcome (kDropout/kDeadline/kBreakerOpen).
    obs::Counter* gaps[3] = {nullptr, nullptr, nullptr};
  };

  /// Per-sensor breaker, indexed by sensor handle. The array is sized once
  /// in the constructor; each sensor belongs to exactly one chunk of one
  /// group pass, so its entry is only mutated by one thread at a time (pass
  /// boundaries synchronize via the pool's futures). `state` is
  /// additionally atomic because breaker_state() observes it from
  /// arbitrary threads while a parallel pass is transitioning it.
  struct Breaker {
    std::atomic<BreakerState> state{BreakerState::kClosed};
    int consecutive_failures = 0;
    int probe_successes = 0;
    TimePoint opened_at = 0;
  };

  /// Outcome of the full retry chain for one sensor slot in a pass.
  struct SlotResult {
    double value = 0.0;
    std::uint32_t retries = 0;
    ReadOutcome outcome = ReadOutcome::kOk;
  };

  /// Reads one sensor. The fast path — breaker closed, first attempt
  /// succeeds within the deadline — records no trace event; anything else
  /// continues in read_slow(). `rng` is the sensor's own stream for this
  /// pass: read faults, fault overlays and backoff jitter all draw from it,
  /// so the outcome does not depend on which thread reads which sensor.
  /// May run on pool threads.
  SlotResult attempt_read(std::size_t handle, TimePoint now, Rng& rng);
  /// The breaker gate and retry loop, under a per-sensor read span.
  /// `first` is the already-taken first attempt when the breaker was
  /// closed, null when the gate has yet to run.
  SlotResult read_slow(std::size_t handle, Breaker& breaker, TimePoint now,
                       Rng& rng, const sim::SensorReadResult* first);
  void transition_breaker(Breaker& breaker, BreakerState to, TimePoint now);
  void on_read_success(Breaker& breaker, TimePoint now);
  void on_read_failure(Breaker& breaker, TimePoint now);

  void read_group(const Group& group, TimePoint now,
                  std::vector<SlotResult>& slots);

  sim::ClusterSimulation& cluster_;
  TimeSeriesStore* store_;
  MessageBus* bus_;
  ThreadPool* pool_;
  std::vector<Group> groups_;
  SensorHealthTracker* health_ = nullptr;
  std::vector<Breaker> breakers_;
  std::atomic<std::uint64_t> samples_collected_{0};
  std::atomic<std::uint64_t> samples_expected_{0};
  std::atomic<std::uint64_t> gaps_total_{0};
  std::atomic<std::uint64_t> retries_total_{0};
  // relaxed counters; open_breakers_ is signed so transient over-decrement
  // bugs would show up as negative rather than wrapping.
  std::atomic<std::int64_t> open_breakers_{0};
  std::size_t empty_groups_ = 0;
  obs::Counter* breaker_transitions_[3] = {nullptr, nullptr, nullptr};
  obs::Gauge* open_breakers_gauge_ = nullptr;
  obs::Gauge* empty_groups_gauge_ = nullptr;
  /// Root stream of the read path. It advances once per group pass; each
  /// sensor read of the pass derives its own stream from that draw and the
  /// sensor's handle, so serial and pooled passes of any pool size store
  /// the same values.
  Rng overlay_rng_;
};

}  // namespace oda::telemetry
