// Topic-based publish/subscribe message bus — the transport layer of the
// monitoring pipeline (the role MQTT plays in DCDB or AMQP in ExaMon).
// Subscriptions take glob patterns over sensor paths; publishing is
// thread-safe and delivers synchronously on the publisher's thread.
//
// Routing is by SeriesId, not by path string. The bus keeps one route per
// interned id: the subscriptions whose glob matches that id's path,
// stamped with the subscription-set generation it was resolved under.
// Resolution is lazy: the first publish of an id after any (un)subscribe
// glob-matches its path once per subscription; every later publish of it
// costs an array load and a stamp compare, and an unrouted id costs nothing
// more. Subscribing does no per-series work, and ids interned later simply
// have no route until first published. The collector publishes each group
// pass as one publish_batch(); publish(const Reading&) interns the path and
// runs the same routing as a batch of one.
//
// Self-instrumentation: each publish call feeds the global obs registry
// (oda_bus_publish_seconds — one observation per call, a batch counts once —
// oda_bus_published_total and oda_bus_unrouted_total in readings,
// oda_bus_delivered_total, oda_bus_subscriber_deliveries_total{pattern=...})
// and flags subscribers whose callback uses over 1 ms of the publishing
// thread's CPU (oda_bus_slow_deliveries_total, plus a warn-once log line
// per subscription) — a synchronous bus is only as fast as its slowest
// subscriber. Time the thread spent descheduled is not the subscriber's.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/series_id.hpp"

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

  /// Delivers each reading, in batch order, to every subscriber whose
  /// pattern matches its path (in subscription order). One lock, one
  /// `bus.publish` span and one latency observation per call; an empty
  /// batch is a no-op. Callbacks run outside the bus lock, so they may
  /// publish or (un)subscribe re-entrantly; a subscription change made by a
  /// callback takes effect from the next publish call.
  void publish_batch(std::span<const IdReading> readings) ODA_EXCLUDES(mu_);
  /// Interns `reading.path` and routes it as a batch of one; subscribers
  /// receive `reading` itself.
  void publish(const Reading& reading) ODA_EXCLUDES(mu_);

  std::size_t subscriber_count() const ODA_EXCLUDES(mu_);
  // relaxed: published_/delivered_ are monotonic statistics counters; they
  // synchronize nothing and no other data is published through them.
  std::uint64_t published_count() const {
    return published_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered_count() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  /// Readings that matched zero subscribers — "data nobody consumed".
  /// Counted (oda_bus_unrouted_total) and warn-logged once per top-level
  /// path prefix, so chaos runs can tell silent drops from real gaps.
  std::uint64_t unrouted_count() const {
    // relaxed: monotonic statistics counter, like published_/delivered_.
    return unrouted_.load(std::memory_order_relaxed);
  }

 private:
  /// Shared with routes and in-flight publishes so neither unsubscribe()
  /// nor a subscribe() that reallocates subs_ invalidates the callback a
  /// concurrent delivery is using. (A stale route may keep an unsubscribed
  /// callback alive until its id is next published; it is never called.)
  /// `pattern` and `callback` are immutable after construction; `warned`
  /// is an atomic once-flag.
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

  /// The subscriptions matching one series' path, valid while `gen` equals
  /// subs_gen_. `path` points into the interner (stable for the process).
  struct Route {
    std::uint64_t gen = 0;
    const std::string* path = nullptr;
    std::vector<std::shared_ptr<SubStats>> subs;
  };

  /// The one routing path behind publish() and publish_batch(). `single`,
  /// when set, is the caller's Reading for a one-element batch and is
  /// delivered in place of a Reading built from the interned path.
  void dispatch(std::span<const IdReading> readings, const Reading* single)
      ODA_EXCLUDES(mu_);
  /// The route of `id`, re-resolved first when stale or missing: the only
  /// place the bus glob-matches. Appends `id`'s path to `warn` when it is
  /// unrouted and its top-level prefix has not been warned about yet.
  const Route& route_locked(SeriesId id, std::vector<std::string>& warn)
      ODA_REQUIRES(mu_);

  /// Outermost data-plane lock: publish() nests store/metrics/log work
  /// under the snapshot taken here (via subscribers), never the reverse.
  mutable Mutex mu_ ODA_ACQUIRED_AFTER(lock_order::bus)
      ODA_ACQUIRED_BEFORE(lock_order::health){LockRankId::kBus};
  std::vector<Subscription> subs_ ODA_GUARDED_BY(mu_);
  SubscriptionId next_id_ ODA_GUARDED_BY(mu_) = 1;
  /// Bumped by every (un)subscribe; a Route stamped with an older value is
  /// stale. Starts above Route's default stamp so new routes resolve.
  std::uint64_t subs_gen_ ODA_GUARDED_BY(mu_) = 1;
  /// Indexed by SeriesId::value; grows on first publish of a higher id.
  std::vector<Route> routes_ ODA_GUARDED_BY(mu_);
  /// Top-level path prefixes already warned about as unrouted (bounded by
  /// the number of distinct prefixes).
  std::vector<std::string> unrouted_warned_ ODA_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> unrouted_{0};
};

}  // namespace oda::telemetry
