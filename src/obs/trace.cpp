#include "obs/trace.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "obs/exposition.hpp"
#include "obs/recorder.hpp"

namespace oda::obs {

namespace detail {

// Recorder bit set at static-init time: the flight recorder is always-on by
// default (obs/recorder.hpp) even before its global instance is touched.
std::atomic<unsigned> g_trace_mode{kTraceModeRecorder};

void set_trace_mode(unsigned bit, bool on) {
  // relaxed RMW: same advisory on/off semantics as the mask's loads.
  if (on) {
    g_trace_mode.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_trace_mode.fetch_and(~bit, std::memory_order_relaxed);
  }
}

namespace {

/// Owns every thread's record until exit; records are never removed, so
/// the pointers handed out stay valid after their thread ends.
struct SpanRegistry {
  Mutex mu ODA_ACQUIRED_AFTER(lock_order::trace)
      ODA_ACQUIRED_BEFORE(lock_order::log){LockRankId::kTrace};
  std::vector<std::unique_ptr<ThreadSpans>> records ODA_GUARDED_BY(mu);
};

SpanRegistry& span_registry() {
  static SpanRegistry registry;
  return registry;
}

}  // namespace

ThreadSpans& local_spans() {
  // A plain pointer: no per-thread constructor or destructor to run.
  thread_local ThreadSpans* spans = nullptr;
  if (spans != nullptr) return *spans;
  SpanRegistry& registry = span_registry();
  MutexLock lock(registry.mu);
  registry.records.push_back(std::make_unique<ThreadSpans>(
      static_cast<std::uint32_t>(registry.records.size() + 1)));
  spans = registry.records.back().get();
  return *spans;
}

std::vector<ThreadSpans*> all_spans() {
  SpanRegistry& registry = span_registry();
  MutexLock lock(registry.mu);
  std::vector<ThreadSpans*> out;
  out.reserve(registry.records.size());
  for (const auto& record : registry.records) out.push_back(record.get());
  return out;
}

void dispatch(const SpanRecord& ev, unsigned mode) {
  ThreadSpans& spans = local_spans();
  if ((mode & kTraceModeRecorder) != 0) spans.ring_push(ev);
  if ((mode & kTraceModeTracer) != 0) Tracer::global().append(spans, ev);
}

void finish_span(const char* name, const char* category,
                 std::uint64_t start_us, TraceContext ctx,
                 std::uint64_t parent_span_id, unsigned mode,
                 std::uint64_t count) {
  const std::uint64_t end_us = Tracer::global().now_us();
  dispatch({name, category, start_us, end_us - start_us, ctx.trace_id,
            ctx.span_id, parent_span_id, TraceEventKind::kSpan, count},
           mode);
}

void emit_instant(const char* name, const char* category, unsigned mode) {
  const std::uint64_t ts_us = Tracer::global().now_us();
  const TraceContext ctx = current_trace_context();
  // Instants get their own id but never become parents (they are not
  // installed into the thread context) — parents are always spans.
  dispatch({name, category, ts_us, 0, ctx.trace_id, next_trace_id(),
            ctx.span_id, TraceEventKind::kInstant},
           mode);
}

}  // namespace detail

std::string trace_id_hex(std::uint64_t id) {
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[id & 0xf];
    id >>= 4;
  }
  return out;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool enabled) {
  detail::set_trace_mode(detail::kTraceModeTracer, enabled);
}

void Tracer::set_capacity(std::size_t max_events) {
  // relaxed: the cap is advisory; record() may overshoot by in-flight spans.
  capacity_.store(max_events, std::memory_order_relaxed);
}

std::uint64_t Tracer::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::record(const char* name, const char* category,
                    std::uint64_t ts_us, std::uint64_t dur_us,
                    TraceEventKind kind, std::uint64_t trace_id,
                    std::uint64_t span_id, std::uint64_t parent_id) {
  append(detail::local_spans(), {name, category, ts_us, dur_us, trace_id,
                                 span_id, parent_id, kind});
}

void Tracer::append(detail::ThreadSpans& spans, const detail::SpanRecord& ev) {
  // relaxed loads/RMWs: recorded_/dropped_ are statistics; the capacity
  // check is advisory (a burst may land a few events past the cap, which
  // only trades a handful of drops — no correctness impact).
  if (recorded_.load(std::memory_order_relaxed) >=
      capacity_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(spans.mu);
  spans.traced.push_back(ev);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  for (detail::ThreadSpans* spans : detail::all_spans()) {
    MutexLock lock(spans->mu);
    for (const detail::SpanRecord& ev : spans->traced) {
      out.push_back(detail::to_trace_event(ev, spans->tid));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  return out;
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  for (detail::ThreadSpans* spans : detail::all_spans()) {
    MutexLock lock(spans->mu);
    n += spans->traced.size();
  }
  return n;
}

void Tracer::clear() {
  for (detail::ThreadSpans* spans : detail::all_spans()) {
    MutexLock lock(spans->mu);
    spans->traced.clear();
  }
  // relaxed: statistics reset; see append().
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::to_chrome_json() const { return chrome_trace_json(events()); }

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  // span id -> event index, for flow binding and parent lookups.
  std::unordered_map<std::uint64_t, std::size_t> by_span;
  by_span.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == TraceEventKind::kSpan && events[i].span_id != 0) {
      by_span.emplace(events[i].span_id, i);
    }
  }
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit_args = [&out](const TraceEvent& ev) {
    if (ev.trace_id == 0 && ev.count == 0) return;
    out << ",\"args\":{";
    if (ev.trace_id != 0) {
      out << "\"trace_id\":\"" << trace_id_hex(ev.trace_id)
          << "\",\"span_id\":\"" << trace_id_hex(ev.span_id)
          << "\",\"parent_id\":\"" << trace_id_hex(ev.parent_id) << '"';
      if (ev.count != 0) out << ',';
    }
    if (ev.count != 0) out << "\"count\":" << ev.count;
    out << '}';
  };
  for (const auto& ev : events) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\""
        << json_escape(ev.category) << "\"";
    if (ev.kind == TraceEventKind::kSpan) {
      out << ",\"ph\":\"X\",\"ts\":" << ev.ts_us << ",\"dur\":" << ev.dur_us;
    } else {
      out << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ev.ts_us;
    }
    out << ",\"pid\":1,\"tid\":" << ev.tid;
    emit_args(ev);
    out << '}';
  }
  // Flow pairs for every cross-thread parent->child edge: the "s" end sits
  // inside the parent slice (ts clamped into it), the "f" end on the child.
  for (const auto& ev : events) {
    if (ev.parent_id == 0 || ev.span_id == 0) continue;
    const auto it = by_span.find(ev.parent_id);
    if (it == by_span.end()) continue;
    const TraceEvent& parent = events[it->second];
    if (parent.tid == ev.tid) continue;  // same-thread nesting needs no arrow
    const std::uint64_t s_ts =
        std::clamp(ev.ts_us, parent.ts_us, parent.ts_us + parent.dur_us);
    out << ",{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":\""
        << trace_id_hex(ev.span_id) << "\",\"ts\":" << s_ts
        << ",\"pid\":1,\"tid\":" << parent.tid << '}'
        << ",{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
           "\"id\":\""
        << trace_id_hex(ev.span_id) << "\",\"ts\":" << ev.ts_us
        << ",\"pid\":1,\"tid\":" << ev.tid << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace oda::obs
