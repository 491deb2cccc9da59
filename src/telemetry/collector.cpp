#include "telemetry/collector.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>

#include "common/log.hpp"
#include "common/string_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oda::telemetry {

namespace {

// Retry: all durations are *simulated* seconds. Backoff and stall latency
// are charged against the deadline, so a stalled sensor costs its budget
// and nothing more.
constexpr int kMaxAttempts = 3;           // total attempts per read
constexpr double kBaseBackoffS = 0.25;    // delay before the first retry
constexpr double kBackoffMultiplier = 2.0;
constexpr double kJitterFraction = 0.25;  // +/- fraction, from the read's Rng
constexpr double kReadDeadlineS = 5.0;    // latency budget for the whole chain

// Per-sensor circuit breaker; the cooldown is simulated time.
constexpr int kBreakerFailureThreshold = 5;     // consecutive failed reads
constexpr Duration kBreakerOpenCooldown = 120;  // before a half-open probe
constexpr int kBreakerHalfOpenSuccesses = 2;    // probe successes to close

}  // namespace

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

double retry_backoff_s(int retry_index, Rng& rng) {
  double backoff = kBaseBackoffS;
  for (int i = 0; i < retry_index; ++i) backoff *= kBackoffMultiplier;
  return backoff * (1.0 + kJitterFraction * rng.uniform(-1.0, 1.0));
}

Collector::Collector(sim::ClusterSimulation& cluster, TimeSeriesStore* store,
                     MessageBus* bus, ThreadPool* pool)
    : cluster_(cluster),
      store_(store),
      bus_(bus),
      pool_(pool),
      breakers_(cluster.sensors().size()),
      overlay_rng_(cluster.params().seed ^ 0x0DAC0113C708ULL) {
  auto& registry = obs::MetricsRegistry::global();
  for (int s = 0; s < 3; ++s) {
    breaker_transitions_[s] = &registry.counter(
        "oda_collector_breaker_transitions_total",
        "Circuit-breaker state transitions by destination state",
        {{"to", breaker_state_name(static_cast<BreakerState>(s))}});
  }
  open_breakers_gauge_ = &registry.gauge(
      "oda_collector_breakers_open", "Sensors whose circuit breaker is open");
  empty_groups_gauge_ = &registry.gauge(
      "oda_collector_empty_groups",
      "Sampling groups whose glob pattern matched zero sensors");
}

std::size_t Collector::add_group(CollectorGroup group) {
  Group g;
  g.def = std::move(group);
  const auto& sensors = cluster_.sensors();
  for (std::size_t handle = 0; handle < sensors.size(); ++handle) {
    if (!glob_match(g.def.pattern, sensors[handle].path)) continue;
    g.sensor_handles.push_back(handle);
    g.sensor_ids.push_back(
        SeriesInterner::global().intern(sensors[handle].path));
  }
  auto& registry = obs::MetricsRegistry::global();
  g.samples = &registry.counter("oda_collector_samples_total",
                                "Samples collected per sampling group",
                                {{"group", g.def.name}});
  g.retries = &registry.counter("oda_collector_read_retries_total",
                                "Read retry attempts per sampling group",
                                {{"group", g.def.name}});
  static constexpr ReadOutcome kGapReasons[3] = {
      ReadOutcome::kDropout, ReadOutcome::kDeadline, ReadOutcome::kBreakerOpen};
  for (int i = 0; i < 3; ++i) {
    g.gaps[i] = &registry.counter(
        "oda_collector_gaps_total",
        "Samples lost to failed or skipped reads, by reason",
        {{"group", g.def.name}, {"reason", read_outcome_name(kGapReasons[i])}});
  }
  const std::size_t matched = g.sensor_handles.size();
  if (matched == 0) {
    ODA_LOG_WARN << "collector group '" << g.def.name << "' pattern '"
                 << g.def.pattern << "' matched no sensors";
    ++empty_groups_;
    empty_groups_gauge_->set(static_cast<double>(empty_groups_));
  }
  groups_.push_back(std::move(g));
  return matched;
}

std::size_t Collector::add_all_sensors(Duration period) {
  return add_group({"all", "*", period});
}

void Collector::transition_breaker(Breaker& breaker, BreakerState to,
                                   TimePoint now) {
  // relaxed (all breaker.state accesses in this file): one pass-thread owns
  // each breaker's mutations (see the Breaker declaration); the atomic only
  // keeps cross-thread breaker_state() observers tear-free, and a late-
  // observed state there is harmless.
  const BreakerState from = breaker.state.load(std::memory_order_relaxed);
  if (from == to) return;
  if (to == BreakerState::kOpen) {
    breaker.opened_at = now;
    breaker.probe_successes = 0;
    // relaxed: statistics gauge (see open_breakers()).
    open_breakers_.fetch_add(1, std::memory_order_relaxed);
  } else if (from == BreakerState::kOpen) {
    // relaxed: statistics gauge (see open_breakers()).
    open_breakers_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (to == BreakerState::kClosed) {
    breaker.consecutive_failures = 0;
    breaker.probe_successes = 0;
  }
  // relaxed: see above — single mutating thread per breaker.
  breaker.state.store(to, std::memory_order_relaxed);
  breaker_transitions_[static_cast<int>(to)]->inc();
  // Zero-duration marks inside the owning read span: breaker state flips
  // show up exactly where they happened in the causal trace.
  switch (to) {
    case BreakerState::kOpen:
      ODA_TRACE_INSTANT_CAT("collector.breaker_open", "collector");
      break;
    case BreakerState::kHalfOpen:
      ODA_TRACE_INSTANT_CAT("collector.breaker_half_open", "collector");
      break;
    case BreakerState::kClosed:
      ODA_TRACE_INSTANT_CAT("collector.breaker_close", "collector");
      break;
  }
}

void Collector::on_read_success(Breaker& breaker, TimePoint now) {
  // relaxed: see transition_breaker — single mutating thread per breaker.
  if (breaker.state.load(std::memory_order_relaxed) ==
      BreakerState::kHalfOpen) {
    ++breaker.probe_successes;
    if (breaker.probe_successes >= kBreakerHalfOpenSuccesses) {
      transition_breaker(breaker, BreakerState::kClosed, now);
    }
  } else {
    breaker.consecutive_failures = 0;
  }
}

void Collector::on_read_failure(Breaker& breaker, TimePoint now) {
  // relaxed: see transition_breaker — single mutating thread per breaker.
  if (breaker.state.load(std::memory_order_relaxed) ==
      BreakerState::kHalfOpen) {
    // A failed probe re-opens immediately and restarts the cooldown.
    transition_breaker(breaker, BreakerState::kOpen, now);
    return;
  }
  ++breaker.consecutive_failures;
  // relaxed: see transition_breaker — single mutating thread per breaker.
  if (breaker.state.load(std::memory_order_relaxed) ==
          BreakerState::kClosed &&
      breaker.consecutive_failures >= kBreakerFailureThreshold) {
    transition_breaker(breaker, BreakerState::kOpen, now);
  }
}

Collector::SlotResult Collector::attempt_read(std::size_t handle,
                                              TimePoint now, Rng& rng) {
  Breaker& breaker = breakers_[handle];
  // relaxed: see transition_breaker — single mutating thread per breaker.
  if (breaker.state.load(std::memory_order_relaxed) != BreakerState::kClosed) {
    return read_slow(handle, breaker, now, rng, nullptr);
  }
  const sim::SensorReadResult first = cluster_.try_read_sensor(handle, rng);
  if (!first.ok || first.latency_s > kReadDeadlineS) {
    return read_slow(handle, breaker, now, rng, &first);
  }
  on_read_success(breaker, now);
  SlotResult slot;
  slot.value = first.value;
  return slot;
}

Collector::SlotResult Collector::read_slow(std::size_t handle,
                                           Breaker& breaker, TimePoint now,
                                           Rng& rng,
                                           const sim::SensorReadResult* first) {
  // Opened only off the fast path, so the retry, breaker and skip instants
  // below keep the failing sensor's read span as their parent.
  ODA_TRACE_SPAN_CAT("collector.read_sensor", "collector");
  SlotResult slot;

  // relaxed: see transition_breaker — single mutating thread per breaker.
  if (breaker.state.load(std::memory_order_relaxed) == BreakerState::kOpen) {
    if (now - breaker.opened_at < kBreakerOpenCooldown) {
      ODA_TRACE_INSTANT_CAT("collector.breaker_skip", "collector");
      slot.outcome = ReadOutcome::kBreakerOpen;
      return slot;
    }
    transition_breaker(breaker, BreakerState::kHalfOpen, now);
  }

  double cost_s = 0.0;
  for (int attempt = 0;; ++attempt) {
    const sim::SensorReadResult r = attempt == 0 && first != nullptr
                                        ? *first
                                        : cluster_.try_read_sensor(handle, rng);
    cost_s += r.latency_s;
    if (cost_s > kReadDeadlineS) {
      // The attempt chain blew its latency budget: give up now, whatever
      // the attempt returned — the collector never blocks past the
      // deadline on a stalled sensor.
      slot.outcome = ReadOutcome::kDeadline;
      break;
    }
    if (r.ok) {
      slot.value = r.value;
      slot.outcome = ReadOutcome::kOk;
      on_read_success(breaker, now);
      return slot;
    }
    slot.outcome = ReadOutcome::kDropout;
    // relaxed: see transition_breaker — single mutating thread per breaker.
    if (breaker.state.load(std::memory_order_relaxed) ==
        BreakerState::kHalfOpen) {
      break;  // failed probe
    }
    if (attempt + 1 >= kMaxAttempts) break;
    cost_s += retry_backoff_s(attempt, rng);
    if (cost_s > kReadDeadlineS) {
      slot.outcome = ReadOutcome::kDeadline;
      break;
    }
    ++slot.retries;
    ODA_TRACE_INSTANT_CAT("collector.retry", "collector");
  }
  on_read_failure(breaker, now);
  return slot;
}

void Collector::read_group(const Group& group, TimePoint now,
                           std::vector<SlotResult>& slots) {
  // Child of the collect() pass root; chunk spans below nest under this one
  // across the pool boundary via the context captured by submit().
  ODA_TRACE_SPAN_CAT("collector.read_group", "collector");
  // One draw per group pass (serially, here); each sensor read derives its
  // own stream from it keyed by handle, so no generator state is shared
  // inside the fan-out. Reads are const over a quiescent simulator
  // (collect() runs between step()s); the lazily captured stuck-fault state
  // is locked inside FaultInjector, and each sensor's breaker entry belongs
  // to exactly one chunk.
  const std::uint64_t draw = overlay_rng_.next();
  const auto body = [&](std::size_t lo, std::size_t hi) {
    ODA_TRACE_SPAN_CAT("collector.read_chunk", "collector");
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t handle = group.sensor_handles[i];
      Rng rng = Rng::from_draw(draw, handle);
      slots[i] = attempt_read(handle, now, rng);
    }
  };
  const std::size_t n = group.sensor_handles.size();
  // Small groups are not worth a fan-out; the output is the same either
  // way. parallel_for_chunks claims chunks from a shared cursor — helpers
  // plus this thread — so a slow sensor (retry backoff ladder) does not
  // hold a statically assigned chunk schedule hostage.
  if (pool_ != nullptr && n >= 64) {
    pool_->parallel_for_chunks(0, n, body);
  } else {
    body(0, n);
  }
}

void Collector::collect() {
  ODA_TRACE_SPAN_CAT("collector.collect", "collector");
  static obs::Histogram& pass_seconds = obs::MetricsRegistry::global().histogram(
      "oda_collector_pass_seconds", "Duration of one collect() pass");
  const auto pass_start = std::chrono::steady_clock::now();

  const TimePoint now = cluster_.now();
  std::vector<IdReading> readings;
  for (const auto& group : groups_) {
    if (group.def.period <= 0 || now % group.def.period != 0) continue;

    const std::size_t n = group.sensor_ids.size();
    std::vector<SlotResult> slots(n);
    read_group(group, now, slots);

    // Serial post-pass: compact successful reads into one batch, account
    // every gap, and feed the health tracker. Exact conservation:
    // n == ingested + gaps for every due group pass.
    readings.clear();
    readings.reserve(n);
    std::uint64_t pass_retries = 0;
    std::uint64_t gap_counts[3] = {0, 0, 0};
    for (std::size_t i = 0; i < n; ++i) {
      const SlotResult& slot = slots[i];
      const std::string& path =
          cluster_.sensors()[group.sensor_handles[i]].path;
      pass_retries += slot.retries;
      if (slot.outcome == ReadOutcome::kOk) {
        readings.push_back(IdReading{group.sensor_ids[i], {now, slot.value}});
        if (health_ != nullptr) {
          health_->record_success(group.sensor_ids[i], path, now, slot.value);
        }
      } else {
        ++gap_counts[static_cast<int>(slot.outcome) - 1];
        if (health_ != nullptr) {
          health_->record_failure(group.sensor_ids[i], path, now,
                                  slot.outcome);
        }
      }
    }

    // One batch insert per group: the store groups by shard and takes each
    // shard lock once, instead of one map lookup + lock per sample.
    if (store_ != nullptr && !readings.empty()) store_->insert_batch(readings);
    // Likewise one bus publish per group: routed by id, so a reading no
    // subscriber wants costs no path lookup or string copy.
    if (bus_ != nullptr) bus_->publish_batch(readings);

    const std::uint64_t gaps = gap_counts[0] + gap_counts[1] + gap_counts[2];
    // relaxed (all counters below): monotonic statistics (see accessors).
    samples_expected_.fetch_add(n, std::memory_order_relaxed);
    samples_collected_.fetch_add(readings.size(), std::memory_order_relaxed);
    gaps_total_.fetch_add(gaps, std::memory_order_relaxed);
    retries_total_.fetch_add(pass_retries, std::memory_order_relaxed);
    group.samples->inc(readings.size());
    if (pass_retries > 0) group.retries->inc(pass_retries);
    for (int i = 0; i < 3; ++i) {
      if (gap_counts[i] > 0) group.gaps[i]->inc(gap_counts[i]);
    }
  }
  open_breakers_gauge_->set(static_cast<double>(open_breakers()));
  if (health_ != nullptr) health_->step(now);

  pass_seconds.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pass_start)
          .count());
}

BreakerState Collector::breaker_state(const std::string& path) const {
  const std::optional<std::size_t> handle = cluster_.find_sensor(path);
  if (!handle.has_value()) return BreakerState::kClosed;
  // relaxed: tear-free observation of a state another thread may be
  // transitioning mid-pass; any recent value is an acceptable answer.
  return breakers_[*handle].state.load(std::memory_order_relaxed);
}

}  // namespace oda::telemetry
