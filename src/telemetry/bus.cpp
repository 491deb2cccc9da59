#include "telemetry/bus.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/log.hpp"
#include "common/string_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oda::telemetry {

namespace {

/// A delivery whose callback uses more than this much of the publishing
/// thread's CPU is counted as slow and warned about once per subscription —
/// generous for an in-process callback.
constexpr double kSlowDeliverySeconds = 1e-3;

/// CPU time this thread has used, in seconds. A system call (no vDSO fast
/// path), so dispatch() reads it only around deliveries that were slow by
/// the wall clock.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Process-wide bus metrics, registered once on first use. Counters
/// aggregate over every MessageBus instance (Prometheus semantics); the
/// per-instance published_count()/delivered_count() accessors remain exact
/// per bus.
struct BusMetrics {
  obs::Counter& published;
  obs::Counter& delivered;
  obs::Counter& slow;
  obs::Counter& unrouted;
  obs::Histogram& publish_seconds;

  static BusMetrics& get() {
    static BusMetrics m{
        obs::MetricsRegistry::global().counter(
            "oda_bus_published_total", "Readings published on any bus"),
        obs::MetricsRegistry::global().counter(
            "oda_bus_delivered_total", "Subscriber callback invocations"),
        obs::MetricsRegistry::global().counter(
            "oda_bus_slow_deliveries_total",
            "Deliveries exceeding the bus slow threshold"),
        obs::MetricsRegistry::global().counter(
            "oda_bus_unrouted_total",
            "Readings that matched zero subscribers"),
        obs::MetricsRegistry::global().histogram(
            "oda_bus_publish_seconds",
            "End-to-end latency of one publish call (all deliveries)"),
    };
    return m;
  }
};

}  // namespace

MessageBus::SubscriptionId MessageBus::subscribe(std::string pattern,
                                                 Callback callback) {
  auto stats = std::make_shared<SubStats>();
  stats->pattern = std::move(pattern);
  stats->callback = std::move(callback);
  stats->per_pattern = &obs::MetricsRegistry::global().counter(
      "oda_bus_subscriber_deliveries_total",
      "Deliveries per subscription pattern", {{"pattern", stats->pattern}});
  MutexLock lock(mu_);
  const SubscriptionId id = next_id_++;
  subs_.push_back({id, std::move(stats)});
  ++subs_gen_;
  return id;
}

void MessageBus::unsubscribe(SubscriptionId id) {
  MutexLock lock(mu_);
  subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                             [id](const Subscription& s) { return s.id == id; }),
              subs_.end());
  ++subs_gen_;
}

const MessageBus::Route& MessageBus::route_locked(
    SeriesId id, std::vector<std::string>& warn) {
  if (id.value < routes_.size() && routes_[id.value].gen == subs_gen_) {
    return routes_[id.value];
  }
  // Look the path up before growing routes_: an unknown id throws here
  // instead of sizing the table by a bogus value.
  const std::string& path = SeriesInterner::global().path(id);
  if (id.value >= routes_.size()) routes_.resize(id.value + 1);
  Route& entry = routes_[id.value];
  entry.gen = subs_gen_;
  entry.path = &path;
  entry.subs.clear();
  for (const auto& s : subs_) {
    if (glob_match(s.stats->pattern, path)) entry.subs.push_back(s.stats);
  }
  if (entry.subs.empty()) {
    // Silent-drop visibility: nobody consumes this series. Warn once per
    // top-level path prefix so a misrouted family surfaces without a log
    // line per sample.
    std::string prefix = path.substr(0, path.find('/'));
    if (std::find(unrouted_warned_.begin(), unrouted_warned_.end(), prefix) ==
        unrouted_warned_.end()) {
      unrouted_warned_.push_back(std::move(prefix));
      warn.push_back(path);
    }
  }
  return entry;
}

void MessageBus::dispatch(std::span<const IdReading> readings,
                          const Reading* single) {
  if (readings.empty()) return;
  ODA_TRACE_SPAN_CAT("bus.publish", "bus");
  BusMetrics& metrics = BusMetrics::get();
  // relaxed (here and for unrouted_/delivered_ below): pure statistics
  // counters — they guard no data and order nothing; readers only need
  // eventual counts.
  published_.fetch_add(readings.size(), std::memory_order_relaxed);
  metrics.published.inc(readings.size());
  // Snapshot each routed reading's subscribers under the lock, call them
  // outside it so a subscriber may publish (or subscribe) re-entrantly
  // without deadlock. Holding the shared blocks (not pointers into routes_,
  // which the next resolution may rewrite) keeps each callback and its
  // accounting valid even if the subscription is removed mid-delivery.
  struct Routed {
    std::size_t index;        // into readings
    const std::string* path;  // interner-owned
    std::size_t first;        // into targets
    std::size_t count;
  };
  std::vector<Routed> routed;
  std::vector<std::shared_ptr<SubStats>> targets;
  std::vector<std::string> warn;
  {
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < readings.size(); ++i) {
      const Route& r = route_locked(readings[i].id, warn);
      if (r.subs.empty()) continue;
      routed.push_back({i, r.path, targets.size(), r.subs.size()});
      targets.insert(targets.end(), r.subs.begin(), r.subs.end());
    }
  }
  const std::size_t unrouted = readings.size() - routed.size();
  if (unrouted > 0) {
    unrouted_.fetch_add(unrouted, std::memory_order_relaxed);
    metrics.unrouted.inc(unrouted);
  }
  for (const std::string& path : warn) {
    ODA_LOG_WARN << "bus publish matched no subscribers (path '" << path
                 << "'); counting under prefix '"
                 << path.substr(0, path.find('/')) << "'";
  }
  using Clock = std::chrono::steady_clock;
  double publish_seconds = 0.0;
  // Slow check. The wall time of a delivery also counts the time the
  // publishing thread sat descheduled, which would blame a trivial
  // subscriber for a loaded machine; the thread's CPU clock does not. It is
  // read once here and again only after a delivery over the threshold by
  // the wall clock. A thread uses no more CPU than wall time, so the CPU
  // used since the mark, less the wall time from the mark to the delivery's
  // start, bounds the delivery's own CPU time from below (give or take the
  // microseconds of bookkeeping before the clock read); it is exact when
  // the thread ran throughout.
  Clock::time_point wall_mark;
  double cpu_mark = 0.0;
  if (!routed.empty()) {
    wall_mark = Clock::now();
    cpu_mark = thread_cpu_seconds();
  }
  const auto deliver = [&](SubStats& t, const Reading& reading) {
    const Clock::time_point t0 = Clock::now();
    t.callback(reading);
    const Clock::time_point t1 = Clock::now();
    const double elapsed_s = std::chrono::duration<double>(t1 - t0).count();
    publish_seconds += elapsed_s;
    delivered_.fetch_add(1, std::memory_order_relaxed);
    metrics.delivered.inc();
    t.per_pattern->inc();
    if (elapsed_s <= kSlowDeliverySeconds) return;
    const double cpu_now = thread_cpu_seconds();
    const double cpu_s = cpu_now - cpu_mark -
                         std::chrono::duration<double>(t0 - wall_mark).count();
    wall_mark = t1;
    cpu_mark = cpu_now;
    if (cpu_s > kSlowDeliverySeconds) {
      metrics.slow.inc();
      // relaxed exchange: warned is a best-effort once-flag for log noise
      // control; a duplicate warning under a rare race would be harmless.
      if (!t.warned.exchange(true, std::memory_order_relaxed)) {
        ODA_LOG_WARN << "slow bus subscriber (pattern '" << t.pattern
                     << "'): delivery used " << cpu_s * 1e3
                     << " ms of CPU (threshold " << kSlowDeliverySeconds * 1e3
                     << " ms)";
      }
    }
  };
  std::optional<Reading> built;
  std::size_t built_for = routed.size();
  const auto reading_of = [&](std::size_t i) -> const Reading& {
    if (single != nullptr) return *single;
    if (built_for != i) {
      built.emplace(Reading{*routed[i].path, readings[routed[i].index].sample});
      built_for = i;
    }
    return *built;
  };
  // Deliveries run in the documented order: routed reading i to
  // targets[routed[i].first ..+ count). Each run of consecutive deliveries
  // to one subscriber is one bus.deliver span, a child of the publish span
  // (same-thread nesting), with the run's length as its count argument:
  // a batch whose matched readings all go to one subscriber (a group pass
  // feeding one alert rule) records one span, not one per reading.
  std::size_t i = 0;
  std::size_t k = routed.empty() ? 0 : routed[0].first;
  while (i < routed.size()) {
    const SubStats* const run_target = targets[k].get();
    obs::TraceSpan span("bus.deliver", "bus");
    std::uint64_t run = 0;
    do {
      deliver(*targets[k], reading_of(i));
      ++run;
      if (++k == routed[i].first + routed[i].count && ++i < routed.size()) {
        k = routed[i].first;
      }
    } while (i < routed.size() && targets[k].get() == run_target);
    span.set_count(run);
  }
  metrics.publish_seconds.observe(publish_seconds);
}

void MessageBus::publish_batch(std::span<const IdReading> readings) {
  dispatch(readings, nullptr);
}

void MessageBus::publish(const Reading& reading) {
  const IdReading r{SeriesInterner::global().intern(reading.path),
                    reading.sample};
  dispatch({&r, 1}, &reading);
}

std::size_t MessageBus::subscriber_count() const {
  MutexLock lock(mu_);
  return subs_.size();
}

}  // namespace oda::telemetry
