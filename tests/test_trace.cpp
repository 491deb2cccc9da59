// Causal-tracing tests (docs/OBSERVABILITY.md): trace/span id propagation
// within a thread, across ThreadPool::submit, and through the full pipeline
// (one collect pass must form a single connected trace from the pass root
// through sensor reads, bus fan-out, store ingest, and analytics cells);
// the always-on flight recorder (records with the Tracer disabled, bounded
// rings, postmortem dump on the unhealthy edge); Chrome JSON rendering
// (hostile-name escaping, cross-thread flow pairs); and histogram exemplars
// carried into the Prometheus exposition.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/trace_context.hpp"
#include "obs/cell.hpp"
#include "obs/exposition.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/cluster.hpp"
#include "sim/faults.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/store.hpp"

namespace oda::obs {
namespace {

/// Leaves the shared tracing globals exactly as other tests expect them:
/// Tracer disabled/empty/default-capacity, FlightRecorder enabled (its
/// always-on default) but cleared, no lingering thread-local context.
class CausalTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer& tracer = Tracer::global();
    tracer.set_enabled(false);
    tracer.clear();
    tracer.set_capacity(1 << 16);
    FlightRecorder& recorder = FlightRecorder::global();
    recorder.set_enabled(true);
    recorder.clear();
    recorder.set_dump_path("");
    exchange_trace_context({});
  }
  void TearDown() override { SetUp(); }
};

// ------------------------------------------------------------ context ids

TEST_F(CausalTraceTest, NextTraceIdIsNonzeroAndUnique) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = next_trace_id();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second);
  }
}

TEST_F(CausalTraceTest, ContextScopeInstallsAndRestores) {
  EXPECT_FALSE(current_trace_context().active());
  {
    TraceContextScope outer({7, 8});
    EXPECT_EQ(current_trace_context().trace_id, 7u);
    EXPECT_EQ(current_trace_context().span_id, 8u);
    {
      TraceContextScope inner({9, 10});
      EXPECT_EQ(current_trace_context().trace_id, 9u);
    }
    EXPECT_EQ(current_trace_context().span_id, 8u);
  }
  EXPECT_FALSE(current_trace_context().active());
}

TEST_F(CausalTraceTest, NestedSpansShareTraceAndLinkParents) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  {
    TraceSpan root("causal.root", "test");
    { TraceSpan child("causal.child", "test"); }
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // The child finishes first; find both by name.
  const TraceEvent* root = nullptr;
  const TraceEvent* child = nullptr;
  for (const auto& e : events) {
    if (e.name == "causal.root") root = &e;
    if (e.name == "causal.child") child = &e;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_NE(root->trace_id, 0u);
  EXPECT_EQ(root->parent_id, 0u);  // freshly rooted trace
  EXPECT_EQ(child->trace_id, root->trace_id);
  EXPECT_EQ(child->parent_id, root->span_id);
  EXPECT_NE(child->span_id, root->span_id);
}

TEST_F(CausalTraceTest, InstantInheritsEnclosingSpan) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  {
    TraceSpan span("causal.owner", "test");
    trace_instant("causal.mark", "test");
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* owner = nullptr;
  const TraceEvent* mark = nullptr;
  for (const auto& e : events) {
    if (e.name == "causal.owner") owner = &e;
    if (e.name == "causal.mark") mark = &e;
  }
  ASSERT_NE(owner, nullptr);
  ASSERT_NE(mark, nullptr);
  EXPECT_EQ(mark->kind, TraceEventKind::kInstant);
  EXPECT_EQ(mark->dur_us, 0u);
  EXPECT_EQ(mark->trace_id, owner->trace_id);
  EXPECT_EQ(mark->parent_id, owner->span_id);
  EXPECT_NE(mark->span_id, owner->span_id);
}

TEST_F(CausalTraceTest, ThreadPoolSubmitPropagatesContext) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  ThreadPool pool(2);
  {
    TraceSpan outer("pool.outer", "test");
    pool.submit([] { ODA_TRACE_SPAN_CAT("pool.inner", "test"); }).get();
  }
  pool.shutdown();
  const std::vector<TraceEvent> events = tracer.events();
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const auto& e : events) {
    if (e.name == "pool.outer") outer = &e;
    if (e.name == "pool.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // The worker-side span joined the submitter's trace as a child even
  // though it ran on another thread.
  EXPECT_EQ(inner->trace_id, outer->trace_id);
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_NE(inner->tid, outer->tid);
}

// ------------------------------------------------- pipeline acceptance

// One collect pass through collector -> pool -> store -> bus -> analytics
// cell must form a single connected trace: every event shares the pass
// root's trace id, every parent link resolves, and the retry / breaker
// instants hang off the faulted sensor's read span.
TEST_F(CausalTraceTest, CollectPassFormsOneConnectedTrace) {
  Tracer& tracer = Tracer::global();
  tracer.set_capacity(1 << 18);

  sim::ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 8;
  params.dt = 15;
  params.seed = 7;
  sim::ClusterSimulation cluster(params);
  // Total dropout on one facility sensor from the first pass on. The
  // breaker opens on the fifth consecutive failed read, so the fifth pass
  // contains retries AND a breaker-open flip.
  cluster.faults().schedule(
      {sim::FaultKind::kSensorDropout, "facility/pue", 0, kHour, 1.0});

  telemetry::TimeSeriesStore store;
  telemetry::MessageBus bus;
  ThreadPool pool(4);
  telemetry::Collector collector(cluster, &store, &bus, &pool);
  const std::size_t matched = collector.add_all_sensors(15);
  ASSERT_GE(matched, 64u);  // exercises the parallel (pool) read path

  // An analytics cell opened from inside a bus delivery: its span must
  // also join the pass trace through the bus.deliver context.
  bus.subscribe("facility/*", [](const telemetry::Reading&) {
    ODA_CELL_SCOPE("trace.cell");
  });

  // Four untraced passes build up the failures; only the fifth is traced.
  for (int pass = 0; pass < 4; ++pass) {
    cluster.step();
    collector.collect();
  }
  tracer.set_enabled(true);
  cluster.step();
  collector.collect();  // exactly one traced pass -> exactly one trace
  pool.shutdown();
  EXPECT_GT(collector.gaps_total(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);

  const std::vector<TraceEvent> events = tracer.events();
  std::map<std::uint64_t, const TraceEvent*> spans;
  const TraceEvent* pass_root = nullptr;
  for (const auto& e : events) {
    if (e.kind == TraceEventKind::kSpan) {
      // Span ids are unique across the whole trace.
      EXPECT_TRUE(spans.emplace(e.span_id, &e).second);
    }
    if (e.name == "collector.collect") {
      EXPECT_EQ(pass_root, nullptr) << "more than one pass root";
      pass_root = &e;
    }
  }
  ASSERT_NE(pass_root, nullptr);
  ASSERT_NE(pass_root->trace_id, 0u);
  EXPECT_EQ(pass_root->parent_id, 0u);

  std::set<std::string> names;
  for (const auto& e : events) {
    names.insert(e.name);
    // Single connected trace: every pipeline event shares the root's trace
    // id and every non-root parent link resolves to a recorded span of the
    // trace. (cluster.step() legitimately roots its own "sim" trace before
    // the pass begins — the only other trace allowed here.)
    if (e.trace_id != pass_root->trace_id) {
      EXPECT_STREQ(e.category.c_str(), "sim") << e.name;
      continue;
    }
    if (e.span_id == pass_root->span_id) continue;
    ASSERT_NE(e.parent_id, 0u) << e.name << " is a second root";
    const auto parent = spans.find(e.parent_id);
    ASSERT_NE(parent, spans.end()) << e.name << " has an unrecorded parent";
    EXPECT_EQ(parent->second->trace_id, pass_root->trace_id);
  }
  // The pass touched every pipeline stage.
  for (const char* required :
       {"collector.read_group", "collector.read_chunk",
        "collector.read_sensor", "collector.retry", "collector.breaker_open",
        "store.insert_batch", "bus.publish", "bus.deliver", "trace.cell"}) {
    EXPECT_TRUE(names.count(required)) << "missing " << required;
  }
  // Retry and breaker instants sit under the failing sensor's read span.
  for (const auto& e : events) {
    if (e.name != "collector.retry" && e.name != "collector.breaker_open") {
      continue;
    }
    EXPECT_EQ(e.kind, TraceEventKind::kInstant);
    const auto parent = spans.find(e.parent_id);
    ASSERT_NE(parent, spans.end());
    EXPECT_EQ(parent->second->name, "collector.read_sensor") << e.name;
  }

  // The pass-duration histogram observed inside the pass span remembers the
  // trace id, and the Prometheus exposition renders it as an OpenMetrics
  // exemplar on a bucket line.
  const std::string prom =
      to_prometheus(MetricsRegistry::global().snapshot());
  EXPECT_NE(prom.find("oda_collector_pass_seconds_bucket"), std::string::npos);
  EXPECT_NE(prom.find("# {trace_id=\""), std::string::npos);

  // The rendered JSON passes the same structural bar scripts/check_trace.py
  // enforces in CI: ids as 16-hex args on every traced event.
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"trace_id\":\"" + trace_id_hex(pass_root->trace_id) +
                      "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

// Span contract of the read path: a read that stays on the fast path
// (breaker closed, first attempt succeeds) records nothing of its own, so a
// fault-free pooled pass costs one span per group, per chunk and for the
// pass root — never one per sensor.
TEST_F(CausalTraceTest, FaultFreePassRecordsNoPerSensorSpans) {
  Tracer& tracer = Tracer::global();
  tracer.set_capacity(1 << 16);
  tracer.set_enabled(true);

  sim::ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 8;
  params.dt = 15;
  params.seed = 11;
  sim::ClusterSimulation cluster(params);
  telemetry::TimeSeriesStore store;
  ThreadPool pool(4);
  telemetry::Collector collector(cluster, &store, nullptr, &pool);
  // One pooled group (>= 64 sensors) and one small serial group.
  ASSERT_GE(collector.add_group({"nodes", "rack*/node*", 15}), 64u);
  ASSERT_GT(collector.add_group({"facility", "facility/*", 15}), 0u);
  const std::size_t groups = 2;

  cluster.step();
  tracer.clear();
  collector.collect();
  pool.shutdown();
  ASSERT_EQ(collector.gaps_total(), 0u);
  ASSERT_EQ(collector.retries_total(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);

  std::size_t collector_spans = 0;
  std::size_t chunks = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind != TraceEventKind::kSpan) continue;
    EXPECT_NE(e.name, "collector.read_sensor");
    if (e.name.rfind("collector.", 0) == 0) ++collector_spans;
    if (e.name == "collector.read_chunk") ++chunks;
  }
  EXPECT_GT(chunks, 0u);  // the pooled path ran
  EXPECT_LE(collector_spans, groups + chunks + 1);
}

// --------------------------------------------------------- flight recorder

TEST_F(CausalTraceTest, RecorderCapturesSpansWhileTracerDisabled) {
  Tracer& tracer = Tracer::global();
  ASSERT_FALSE(tracer.enabled());
  FlightRecorder& recorder = FlightRecorder::global();
  // The recorder is armed by default, so spans land there with the tracer
  // off.
  { TraceSpan span("flight.only", "test"); }
  trace_instant("flight.mark", "test");
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_GE(recorder.recorded_total(), 2u);
  const std::vector<TraceEvent> events = recorder.snapshot();
  ASSERT_GE(events.size(), 2u);
  std::set<std::string> names;
  for (const auto& e : events) names.insert(e.name);
  EXPECT_TRUE(names.count("flight.only"));
  EXPECT_TRUE(names.count("flight.mark"));
  const std::string json = recorder.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flight.only\""), std::string::npos);
}

TEST_F(CausalTraceTest, RecorderDisabledTogetherWithTracerRecordsNothing) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.set_enabled(false);
  { TraceSpan span("flight.dark", "test"); }
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_EQ(Tracer::global().event_count(), 0u);
  recorder.set_enabled(true);
}

TEST_F(CausalTraceTest, RingWrapKeepsMostRecentEvents) {
  FlightRecorder& recorder = FlightRecorder::global();
  constexpr std::uint64_t kCap = FlightRecorder::kRingCapacity;
  constexpr std::uint64_t kTotal = kCap + 24;
  const std::uint64_t recorded_before = recorder.recorded_total();
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    recorder.record("wrap.event", "test", i, 1, TraceEventKind::kSpan, 1,
                    i + 1, 0);
  }
  EXPECT_EQ(recorder.recorded_total() - recorded_before, kTotal);
  // The fixture cleared every ring and this thread alone records here.
  const std::vector<TraceEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), kCap);
  for (const auto& e : events) {
    EXPECT_GE(e.ts_us, 24u);  // only the newest kCap of kTotal survive
    EXPECT_LT(e.ts_us, kTotal);
  }
  recorder.clear();
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST_F(CausalTraceTest, RecordedTotalNeverFallsAcrossClear) {
  FlightRecorder& recorder = FlightRecorder::global();
  for (int i = 0; i < 5; ++i) { TraceSpan span("total.before", "test"); }
  const std::uint64_t before = recorder.recorded_total();
  EXPECT_GE(recorder.event_count(), 5u);
  recorder.clear();
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_GE(recorder.recorded_total(), before);
  { TraceSpan span("total.after", "test"); }
  EXPECT_GE(recorder.recorded_total(), before + 1);
  const std::vector<TraceEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "total.after");
}

TEST_F(CausalTraceTest, BothSinksReportOneTidPerThread) {
  Tracer& tracer = Tracer::global();
  FlightRecorder& recorder = FlightRecorder::global();
  tracer.set_enabled(true);
  { TraceSpan span("tid.main", "test"); }
  ThreadPool pool(1);
  pool.submit([] { TraceSpan span("tid.worker", "test"); }).get();
  pool.shutdown();
  tracer.set_enabled(false);

  // span id -> tid, per sink.
  const auto tids = [](const std::vector<TraceEvent>& events) {
    std::map<std::uint64_t, std::uint32_t> out;
    for (const auto& e : events) {
      if (e.name == "tid.main" || e.name == "tid.worker") {
        out[e.span_id] = e.tid;
      }
    }
    return out;
  };
  const auto traced = tids(tracer.events());
  const auto recorded = tids(recorder.snapshot());
  ASSERT_EQ(traced.size(), 2u);
  EXPECT_EQ(traced, recorded);
  std::set<std::uint32_t> distinct;
  for (const auto& [span, tid] : traced) distinct.insert(tid);
  EXPECT_EQ(distinct.size(), 2u);  // the worker is its own thread
}

TEST_F(CausalTraceTest, UnhealthyAssessmentDumpsPostmortem) {
  FlightRecorder& recorder = FlightRecorder::global();
  { TraceSpan span("flight.postmortem", "test"); }  // make the dump non-empty
  const std::string path = ::testing::TempDir() + "oda_flight_dump.json";
  std::remove(path.c_str());
  recorder.set_dump_path(path);
  EXPECT_EQ(recorder.dump_path(), path);

  // A snapshot with an open breaker fails the collector.breakers check;
  // the healthy -> unhealthy edge must write the configured dump file.
  MetricsRegistry registry;
  registry.gauge("oda_collector_breakers_open", "open breakers").set(1.0);
  const std::uint64_t dumps_before = recorder.dump_count();
  const PipelineHealthReport report =
      assess_pipeline_health(registry.snapshot());
  ASSERT_FALSE(report.healthy());
  EXPECT_EQ(recorder.dump_count(), dumps_before + 1);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "postmortem dump not written to " << path;
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.str().find("flight.postmortem"), std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ chrome json

TEST_F(CausalTraceTest, ChromeJsonEscapesHostileNames) {
  std::vector<TraceEvent> events(1);
  // "\x01" is split from "ctl" so the hex escape doesn't swallow the 'c'.
  events[0].name = "evil\"name\\with\nnewline\tand\x01" "ctl";
  events[0].category = "cat\"egory";
  events[0].ts_us = 1;
  events[0].dur_us = 2;
  events[0].tid = 1;
  const std::string json = chrome_trace_json(events);
  EXPECT_NE(json.find("evil\\\"name\\\\with\\nnewline\\tand\\u0001ctl"),
            std::string::npos);
  EXPECT_NE(json.find("cat\\\"egory"), std::string::npos);
  // No raw control bytes or unescaped quotes-in-strings may survive.
  for (const char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
}

TEST_F(CausalTraceTest, ChromeJsonEmitsFlowPairsForCrossThreadEdges) {
  std::vector<TraceEvent> events(2);
  events[0].name = "parent";
  events[0].ts_us = 10;
  events[0].dur_us = 100;
  events[0].tid = 1;
  events[0].trace_id = 0xaa;
  events[0].span_id = 0xb1;
  events[1].name = "child";
  events[1].ts_us = 20;
  events[1].dur_us = 5;
  events[1].tid = 2;  // different thread -> Perfetto needs a flow arrow
  events[1].trace_id = 0xaa;
  events[1].span_id = 0xb2;
  events[1].parent_id = 0xb1;
  const std::string json = chrome_trace_json(events);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"" + trace_id_hex(0xaa) + "\""),
            std::string::npos);

  // Same-thread nesting needs no flow glue.
  events[1].tid = 1;
  const std::string same_thread = chrome_trace_json(events);
  EXPECT_EQ(same_thread.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_EQ(same_thread.find("\"ph\":\"f\""), std::string::npos);
}

TEST_F(CausalTraceTest, TraceIdHexIsFixedWidthLowercase) {
  EXPECT_EQ(trace_id_hex(0), "0000000000000000");
  EXPECT_EQ(trace_id_hex(0xabc), "0000000000000abc");
  EXPECT_EQ(trace_id_hex(0xFFFFFFFFFFFFFFFFull), "ffffffffffffffff");
}

// -------------------------------------------------------------- exemplars

TEST_F(CausalTraceTest, HistogramRemembersExtremeObservationTrace) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("oda_exemplar_seconds", "exemplar test",
                                       std::vector<double>{1.0, 2.0});
  hist.observe(0.5);  // no active context: no exemplar yet
  EXPECT_EQ(hist.exemplar().trace_id, 0u);
  {
    TraceContextScope scope({0x1111, 0x1});
    hist.observe(1.5);
  }
  EXPECT_EQ(hist.exemplar().trace_id, 0x1111u);
  EXPECT_DOUBLE_EQ(hist.exemplar().value, 1.5);
  {
    TraceContextScope scope({0x2222, 0x2});
    hist.observe(0.7);  // smaller than the current extreme: keeps 0x1111
  }
  EXPECT_EQ(hist.exemplar().trace_id, 0x1111u);
  {
    TraceContextScope scope({0x3333, 0x3});
    hist.observe(5.0);  // new extreme takes over
  }
  EXPECT_EQ(hist.exemplar().trace_id, 0x3333u);
  EXPECT_DOUBLE_EQ(hist.exemplar().value, 5.0);

  // Exposition: OpenMetrics "# {...}" suffix on the smallest bucket that
  // contains the exemplar value (5.0 > every finite bound -> +Inf bucket).
  const std::string prom = to_prometheus(registry.snapshot());
  EXPECT_NE(
      prom.find("oda_exemplar_seconds_bucket{le=\"+Inf\"} 4 # {trace_id=\"" +
                trace_id_hex(0x3333) + "\"} 5"),
      std::string::npos);
  // JSON exposition carries the same exemplar.
  const std::string json = to_json(registry.snapshot());
  EXPECT_NE(json.find("\"exemplar\":{\"value\":5,\"trace_id\":\"" +
                      trace_id_hex(0x3333) + "\"}"),
            std::string::npos);
}

TEST_F(CausalTraceTest, ExemplarOnFiniteBucketLine) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("oda_exemplar2_seconds", "exemplar",
                                       std::vector<double>{1.0, 2.0});
  {
    TraceContextScope scope({0xbeef, 0x1});
    hist.observe(1.5);  // lands in the le="2" bucket
  }
  const std::string prom = to_prometheus(registry.snapshot());
  EXPECT_NE(prom.find("oda_exemplar2_seconds_bucket{le=\"2\"} 1 # "
                      "{trace_id=\"" +
                      trace_id_hex(0xbeef) + "\"} 1.5"),
            std::string::npos);
  // The other bucket lines carry no exemplar suffix.
  EXPECT_NE(prom.find("oda_exemplar2_seconds_bucket{le=\"1\"} 0\n"),
            std::string::npos);
  EXPECT_NE(prom.find("oda_exemplar2_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
}

}  // namespace
}  // namespace oda::obs
