#include "obs/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/log.hpp"

namespace oda::obs {

namespace {

std::atomic<std::uint64_t> g_next_recorder_id{1};

/// Per-thread registration, same scheme as Tracer: recorder id -> this
/// thread's ring. The recorder keeps its own shared_ptr so rings survive
/// thread exit until dumped.
std::map<std::uint64_t, std::shared_ptr<void>>& thread_ring_map() {
  thread_local std::map<std::uint64_t, std::shared_ptr<void>> map;
  return map;
}

}  // namespace

FlightRecorder::FlightRecorder()
    // relaxed: the id only needs uniqueness, not ordering.
    : recorder_id_(
          g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::set_enabled(bool enabled) {
  // relaxed: advisory flag, see enabled().
  enabled_.store(enabled, std::memory_order_relaxed);
  if (this == &global()) {
    // Mirror into the shared sink mask the span macros read (trace.hpp).
    // relaxed RMW: same advisory on/off semantics as the flag itself.
    auto& mode = detail::g_trace_mode;
    if (enabled) {
      mode.fetch_or(detail::kTraceModeRecorder, std::memory_order_relaxed);
    } else {
      mode.fetch_and(~detail::kTraceModeRecorder, std::memory_order_relaxed);
    }
  }
}

FlightRecorder::Ring& FlightRecorder::local_ring() {
  auto& map = thread_ring_map();
  const auto it = map.find(recorder_id_);
  if (it != map.end()) {
    return *static_cast<Ring*>(it->second.get());
  }
  auto ring = std::make_shared<Ring>();
  {
    MutexLock lock(mu_);
    ring->tid = next_tid_++;
    rings_.push_back(ring);
  }
  map.emplace(recorder_id_, ring);
  return *ring;
}

void FlightRecorder::record(const char* name, const char* category,
                            std::uint64_t ts_us, std::uint64_t dur_us,
                            TraceEventKind kind, std::uint64_t trace_id,
                            std::uint64_t span_id,
                            std::uint64_t parent_id) noexcept {
  Ring& ring = local_ring();
  // relaxed: head is written by this thread only; the release store below
  // publishes the slot before the new head value matters to readers.
  const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[h % kRingCapacity];
  // Seqlock write protocol: odd marks the slot in-progress so a concurrent
  // snapshot() skips it instead of reading a half-written event. The
  // fence-free formulation (release payload stores pairing with the
  // reader's acquire payload loads) is used because TSan cannot instrument
  // atomic_thread_fence: any reader that observes a payload value from this
  // lap is then guaranteed to observe the odd (or newer) seq on its
  // re-check and reject the slot. On x86 these release stores compile to
  // the same plain movs as relaxed stores plus a fence would.
  slot.seq.store(2 * h + 1, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_release);
  slot.category.store(category, std::memory_order_release);
  slot.ts_us.store(ts_us, std::memory_order_release);
  slot.dur_us.store(dur_us, std::memory_order_release);
  slot.trace_id.store(trace_id, std::memory_order_release);
  slot.span_id.store(span_id, std::memory_order_release);
  slot.parent_id.store(parent_id, std::memory_order_release);
  slot.kind.store(static_cast<std::uint32_t>(kind), std::memory_order_release);
  // release: publishes the payload with the stable (even) sequence value.
  slot.seq.store(2 * h + 2, std::memory_order_release);
  // release: a reader that sees this head has the slot's final seq visible.
  ring.head.store(h + 1, std::memory_order_release);
  // relaxed: statistics counter.
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> FlightRecorder::snapshot() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    MutexLock lock(mu_);
    rings = rings_;
  }
  std::vector<TraceEvent> out;
  for (const auto& ring : rings) {
    // acquire: pairs with the release head store so slots below the head
    // are fully published.
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t begin = head > kRingCapacity ? head - kRingCapacity : 0;
    for (std::uint64_t i = begin; i < head; ++i) {
      const Slot& slot = ring->slots[i % kRingCapacity];
      // Seqlock read: accept only when both seq reads match the stable
      // value for exactly this ring position (2i+2); anything else means
      // the writer lapped or is mid-write — skip, never tear.
      // acquire: pairs with the writer's final release store.
      const std::uint64_t seq_a = slot.seq.load(std::memory_order_acquire);
      if (seq_a != 2 * i + 2) continue;
      TraceEvent ev;
      // acquire payload loads: each pairs with the writer's release store,
      // so a load that observes a newer lap's value forces the seq re-check
      // below to observe that lap's odd (or newer) seq and reject. They
      // also keep the re-check ordered after every payload load without an
      // acquire fence (which TSan cannot instrument).
      const char* name = slot.name.load(std::memory_order_acquire);
      const char* category = slot.category.load(std::memory_order_acquire);
      ev.ts_us = slot.ts_us.load(std::memory_order_acquire);
      ev.dur_us = slot.dur_us.load(std::memory_order_acquire);
      ev.trace_id = slot.trace_id.load(std::memory_order_acquire);
      ev.span_id = slot.span_id.load(std::memory_order_acquire);
      ev.parent_id = slot.parent_id.load(std::memory_order_acquire);
      ev.kind = static_cast<TraceEventKind>(
          slot.kind.load(std::memory_order_acquire));
      // relaxed: the acquire loads above order this check after the payload.
      if (slot.seq.load(std::memory_order_relaxed) != seq_a) continue;
      if (name == nullptr || category == nullptr) continue;
      ev.name = name;
      ev.category = category;
      ev.tid = ring->tid;
      out.push_back(std::move(ev));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  return out;
}

std::string FlightRecorder::to_chrome_json() const {
  return chrome_trace_json(snapshot());
}

std::size_t FlightRecorder::event_count() const { return snapshot().size(); }

void FlightRecorder::clear() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    MutexLock lock(mu_);
    rings = rings_;
  }
  for (const auto& ring : rings) {
    for (auto& slot : ring->slots) {
      // relaxed: callers quiesce writers before clear() (documented).
      slot.seq.store(0, std::memory_order_relaxed);
    }
    // relaxed: same quiescence contract.
    ring->head.store(0, std::memory_order_relaxed);
  }
}

void FlightRecorder::set_dump_path(std::string path) {
  MutexLock lock(mu_);
  dump_path_ = std::move(path);
}

std::string FlightRecorder::dump_path() const {
  MutexLock lock(mu_);
  return dump_path_;
}

bool FlightRecorder::dump_to_file(const std::string& path) {
  std::string target = path;
  if (target.empty()) target = dump_path();
  if (target.empty()) return false;
  const std::string json = to_chrome_json();
  std::FILE* f = std::fopen(target.c_str(), "w");
  if (f == nullptr) {
    ODA_LOG_WARN << "flight recorder: cannot open dump file " << target;
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    ODA_LOG_WARN << "flight recorder: short write to " << target;
    return false;
  }
  // relaxed: statistics counter.
  dumps_.fetch_add(1, std::memory_order_relaxed);
  ODA_LOG_INFO << "flight recorder: dumped " << target;
  return true;
}

}  // namespace oda::obs
