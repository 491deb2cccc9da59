#include "obs/recorder.hpp"

#include <algorithm>
#include <cstdio>

#include "common/log.hpp"

namespace oda::obs {

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::set_enabled(bool enabled) {
  detail::set_trace_mode(detail::kTraceModeRecorder, enabled);
}

void detail::ThreadSpans::ring_push(const SpanRecord& ev) noexcept {
  // relaxed: head is written by this thread only; the release store below
  // publishes the slot before the new head value matters to readers.
  const std::uint64_t h = head.load(std::memory_order_relaxed);
  Slot& slot = slots[h % FlightRecorder::kRingCapacity];
  // Seqlock write protocol: odd marks the slot in-progress so a concurrent
  // snapshot() skips it instead of reading a half-written event. The
  // fence-free formulation (release payload stores pairing with the
  // reader's acquire payload loads) is used because TSan cannot instrument
  // atomic_thread_fence: any reader that observes a payload value from this
  // lap is then guaranteed to observe the odd (or newer) seq on its
  // re-check and reject the slot. On x86 these release stores compile to
  // the same plain movs as relaxed stores plus a fence would.
  slot.seq.store(2 * h + 1, std::memory_order_relaxed);
  slot.name.store(ev.name, std::memory_order_release);
  slot.category.store(ev.category, std::memory_order_release);
  slot.ts_us.store(ev.ts_us, std::memory_order_release);
  slot.dur_us.store(ev.dur_us, std::memory_order_release);
  slot.trace_id.store(ev.trace_id, std::memory_order_release);
  slot.span_id.store(ev.span_id, std::memory_order_release);
  slot.parent_id.store(ev.parent_id, std::memory_order_release);
  const auto kind = static_cast<std::uint32_t>(ev.kind);
  slot.kind.store(kind, std::memory_order_release);
  // release: publishes the payload with the stable (even) sequence value.
  slot.seq.store(2 * h + 2, std::memory_order_release);
  // release: a reader that sees this head has the slot's final seq visible.
  head.store(h + 1, std::memory_order_release);
}

void FlightRecorder::record(const char* name, const char* category,
                            std::uint64_t ts_us, std::uint64_t dur_us,
                            TraceEventKind kind, std::uint64_t trace_id,
                            std::uint64_t span_id,
                            std::uint64_t parent_id) noexcept {
  detail::local_spans().ring_push(
      {name, category, ts_us, dur_us, trace_id, span_id, parent_id, kind});
}

namespace {

/// First ring position a reader keeps: the newer of clear()'s mark and the
/// oldest slot not yet overwritten. `head` must be loaded after `start`.
std::uint64_t ring_begin(std::uint64_t start, std::uint64_t head) {
  const std::uint64_t cap = FlightRecorder::kRingCapacity;
  return std::max(start, head > cap ? head - cap : 0);
}

}  // namespace

std::vector<TraceEvent> FlightRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  for (const detail::ThreadSpans* spans : detail::all_spans()) {
    // acquire: pairs with clear()'s release, so the head loaded next is at
    // least the one clear() read.
    const std::uint64_t start = spans->start.load(std::memory_order_acquire);
    // acquire: pairs with the release head store so slots below the head
    // are fully published.
    const std::uint64_t head = spans->head.load(std::memory_order_acquire);
    for (std::uint64_t i = ring_begin(start, head); i < head; ++i) {
      const detail::ThreadSpans::Slot& slot = spans->slots[i % kRingCapacity];
      // Seqlock read: accept only when both seq reads match the stable
      // value for exactly this ring position (2i+2); anything else means
      // the writer lapped or is mid-write — skip, never tear.
      // acquire: pairs with the writer's final release store.
      const std::uint64_t seq_a = slot.seq.load(std::memory_order_acquire);
      if (seq_a != 2 * i + 2) continue;
      detail::SpanRecord ev;
      // acquire payload loads: each pairs with the writer's release store,
      // so a load that observes a newer lap's value forces the seq re-check
      // below to observe that lap's odd (or newer) seq and reject. They
      // also keep the re-check ordered after every payload load without an
      // acquire fence (which TSan cannot instrument).
      ev.name = slot.name.load(std::memory_order_acquire);
      ev.category = slot.category.load(std::memory_order_acquire);
      ev.ts_us = slot.ts_us.load(std::memory_order_acquire);
      ev.dur_us = slot.dur_us.load(std::memory_order_acquire);
      ev.trace_id = slot.trace_id.load(std::memory_order_acquire);
      ev.span_id = slot.span_id.load(std::memory_order_acquire);
      ev.parent_id = slot.parent_id.load(std::memory_order_acquire);
      ev.kind = static_cast<TraceEventKind>(
          slot.kind.load(std::memory_order_acquire));
      // relaxed: the acquire loads above order this check after the payload.
      if (slot.seq.load(std::memory_order_relaxed) != seq_a) continue;
      if (ev.name == nullptr || ev.category == nullptr) continue;
      out.push_back(detail::to_trace_event(ev, spans->tid));
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

std::size_t FlightRecorder::event_count() const {
  std::size_t n = 0;
  for (const detail::ThreadSpans* spans : detail::all_spans()) {
    // acquire: same start-then-head order as snapshot().
    const std::uint64_t start = spans->start.load(std::memory_order_acquire);
    const std::uint64_t head = spans->head.load(std::memory_order_acquire);
    n += static_cast<std::size_t>(head - ring_begin(start, head));
  }
  return n;
}

std::uint64_t FlightRecorder::recorded_total() const {
  std::uint64_t n = 0;
  for (const detail::ThreadSpans* spans : detail::all_spans()) {
    // relaxed: statistics; each head only grows, so the sum never falls.
    n += spans->head.load(std::memory_order_relaxed);
  }
  return n;
}

void FlightRecorder::clear() {
  for (detail::ThreadSpans* spans : detail::all_spans()) {
    // acquire/release: see snapshot(). A write racing the clear lands on
    // either side of the mark, never torn.
    spans->start.store(spans->head.load(std::memory_order_acquire),
                       std::memory_order_release);
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
