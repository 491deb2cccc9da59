// Topic-based publish/subscribe message bus — the transport layer of the
// monitoring pipeline (the role MQTT plays in DCDB or AMQP in ExaMon).
// Subscriptions take glob patterns over sensor paths; publishing is
// thread-safe and delivers synchronously on the publisher's thread.
//
// Self-instrumentation: publish() feeds the global obs registry
// (oda_bus_publish_seconds, oda_bus_published_total, oda_bus_delivered_total,
// oda_bus_subscriber_deliveries_total{pattern=...}) and flags subscribers
// whose callback takes over 1 ms (oda_bus_slow_deliveries_total, plus a
// warn-once log line per subscription) — a synchronous bus is only as fast
// as its slowest subscriber.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "telemetry/sample.hpp"

namespace oda::obs {
class Counter;
}  // namespace oda::obs

namespace oda::telemetry {

class MessageBus {
 public:
  using Callback = std::function<void(const Reading&)>;
  using SubscriptionId = std::uint64_t;

  /// Subscribes to all paths matching the glob pattern.
  SubscriptionId subscribe(std::string pattern, Callback callback)
      ODA_EXCLUDES(mu_);
  void unsubscribe(SubscriptionId id) ODA_EXCLUDES(mu_);

  /// Delivers the reading to every matching subscriber. Callbacks run
  /// outside the bus lock, so they may publish or (un)subscribe
  /// re-entrantly.
  void publish(const Reading& reading) ODA_EXCLUDES(mu_);
  void publish(const std::string& path, TimePoint time, double value)
      ODA_EXCLUDES(mu_);

  std::size_t subscriber_count() const ODA_EXCLUDES(mu_);
  // relaxed: published_/delivered_ are monotonic statistics counters; they
  // synchronize nothing and no other data is published through them.
  std::uint64_t published_count() const {
    return published_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered_count() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  /// Publishes that matched zero subscribers — "data nobody consumed".
  /// Counted (oda_bus_unrouted_total) and warn-logged once per top-level
  /// path prefix, so chaos runs can tell silent drops from real gaps.
  std::uint64_t unrouted_count() const {
    // relaxed: monotonic statistics counter, like published_/delivered_.
    return unrouted_.load(std::memory_order_relaxed);
  }

 private:
  /// Shared with in-flight publishes so neither unsubscribe() nor a
  /// subscribe() that reallocates subs_ invalidates the callback a
  /// concurrent delivery is using. `pattern` and `callback` are immutable
  /// after construction; `warned` is an atomic once-flag.
  struct SubStats {
    std::string pattern;
    Callback callback;
    std::atomic<bool> warned{false};
    obs::Counter* per_pattern = nullptr;  // owned by the global registry
  };

  struct Subscription {
    SubscriptionId id;
    std::shared_ptr<SubStats> stats;
  };

  /// Outermost data-plane lock: publish() nests store/metrics/log work
  /// under the snapshot taken here (via subscribers), never the reverse.
  mutable Mutex mu_ ODA_ACQUIRED_AFTER(lock_order::bus)
      ODA_ACQUIRED_BEFORE(lock_order::health){LockRankId::kBus};
  std::vector<Subscription> subs_ ODA_GUARDED_BY(mu_);
  SubscriptionId next_id_ ODA_GUARDED_BY(mu_) = 1;
  /// Top-level path prefixes already warned about as unrouted (bounded by
  /// the number of distinct prefixes).
  std::vector<std::string> unrouted_warned_ ODA_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> unrouted_{0};
};

}  // namespace oda::telemetry
