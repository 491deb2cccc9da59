// Tests for the self-instrumentation subsystem: metrics registry semantics,
// Prometheus/JSON exposition correctness, span tracing, per-cell cost
// accounting, pipeline health checks, and callback-series lifetimes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/blocking_queue.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/cell.hpp"
#include "obs/exposition.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oda::obs {
namespace {

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, CounterIncrements) {
  MetricsRegistry reg;
  Counter& c = reg.counter("oda_test_events_total", "events");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("oda_test_depth", "depth");
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(MetricsRegistry, HistogramBucketsSumCount) {
  MetricsRegistry reg;
  Histogram& h =
      reg.histogram("oda_test_seconds", "latency", std::vector<double>{1, 2, 4});
  h.observe(0.5);   // bucket le=1
  h.observe(1.0);   // inclusive upper bound: still le=1
  h.observe(3.0);   // bucket le=4
  h.observe(100.0); // +Inf bucket
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 finite bounds + implicit +Inf
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
}

TEST(MetricsRegistry, ReRegistrationReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("oda_test_total", "help", {{"k", "v"}});
  Counter& b = reg.counter("oda_test_total", "help", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(MetricsRegistry, LabelOrderDoesNotMatter) {
  MetricsRegistry reg;
  Counter& a = reg.counter("oda_test_total", "help",
                           {{"zone", "a"}, {"kind", "x"}});
  Counter& b = reg.counter("oda_test_total", "help",
                           {{"kind", "x"}, {"zone", "a"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, DistinctLabelsAreDistinctSeries) {
  MetricsRegistry reg;
  Counter& a = reg.counter("oda_test_total", "help", {{"k", "a"}});
  Counter& b = reg.counter("oda_test_total", "help", {{"k", "b"}});
  EXPECT_NE(&a, &b);
  a.inc(2);
  b.inc(3);
  EXPECT_DOUBLE_EQ(reg.snapshot().total("oda_test_total"), 5.0);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("oda_test_total", "help");
  EXPECT_THROW(reg.gauge("oda_test_total", "help"), ContractError);
  EXPECT_THROW(reg.histogram("oda_test_total", "help"), ContractError);
}

TEST(MetricsRegistry, ValidatesNames) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("bad name", "help"), ContractError);
  EXPECT_THROW(reg.counter("", "help"), ContractError);
  EXPECT_THROW(reg.counter("0leading", "help"), ContractError);
  EXPECT_THROW(reg.counter("ok_total", "help", {{"bad-label", "v"}}),
               ContractError);
  EXPECT_NO_THROW(reg.counter("ok_total", "help", {{"ok_label", "any value"}}));
}

TEST(MetricsRegistry, SnapshotFindAndTotal) {
  MetricsRegistry reg;
  reg.counter("oda_a_total", "a").inc(7);
  reg.gauge("oda_b", "b").set(2.5);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("oda_a_total"), nullptr);
  EXPECT_EQ(snap.find("oda_a_total")->type, MetricType::kCounter);
  EXPECT_EQ(snap.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(snap.total("oda_a_total"), 7.0);
  EXPECT_DOUBLE_EQ(snap.total("oda_b"), 2.5);
  EXPECT_DOUBLE_EQ(snap.total("missing"), 0.0);
  EXPECT_EQ(reg.family_count(), 2u);
}

TEST(MetricsRegistry, CallbackSeriesLifetime) {
  MetricsRegistry reg;
  double depth = 5.0;
  {
    const CallbackHandle handle = reg.gauge_callback(
        "oda_cb_depth", "pull-model depth", {{"q", "x"}},
        [&depth] { return depth; });
    EXPECT_DOUBLE_EQ(reg.snapshot().total("oda_cb_depth"), 5.0);
    depth = 9.0;
    EXPECT_DOUBLE_EQ(reg.snapshot().total("oda_cb_depth"), 9.0);
  }
  // Handle destroyed: the series must no longer be exported.
  EXPECT_EQ(reg.snapshot().find("oda_cb_depth"), nullptr);
}

TEST(MetricsRegistry, CallbackHandleMoveTransfersOwnership) {
  MetricsRegistry reg;
  CallbackHandle outer;
  {
    CallbackHandle inner = reg.counter_callback(
        "oda_cb_total", "moved", {}, [] { return 1.0; });
    outer = std::move(inner);
  }
  // `inner` was destroyed after the move; the series must survive.
  EXPECT_NE(reg.snapshot().find("oda_cb_total"), nullptr);
  outer.release();
  EXPECT_EQ(reg.snapshot().find("oda_cb_total"), nullptr);
}

TEST(MetricsRegistry, ExponentialAndDefaultBounds) {
  const std::vector<double> bounds = exponential_bounds(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
  const std::vector<double> latency = default_latency_bounds();
  ASSERT_FALSE(latency.empty());
  for (std::size_t i = 1; i < latency.size(); ++i) {
    EXPECT_LT(latency[i - 1], latency[i]);
  }
}

// -------------------------------------------------------------- exposition

TEST(Exposition, EscapesLabelValues) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_label_value("line1\nline2"), "line1\\nline2");
}

TEST(Exposition, EscapesHelpText) {
  // HELP escapes backslash and newline but NOT double quotes.
  EXPECT_EQ(escape_help_text("a\\b \"q\"\nend"), "a\\\\b \"q\"\\nend");
}

TEST(Exposition, FormatSampleValue) {
  EXPECT_EQ(format_sample_value(0.0), "0");
  EXPECT_EQ(format_sample_value(42.0), "42");
  EXPECT_EQ(format_sample_value(-5.0), "-5");
  EXPECT_EQ(format_sample_value(0.5), "0.5");
  EXPECT_EQ(format_sample_value(1e-6), "1e-06");
  EXPECT_EQ(format_sample_value(std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(format_sample_value(-std::numeric_limits<double>::infinity()),
            "-Inf");
  EXPECT_EQ(format_sample_value(std::numeric_limits<double>::quiet_NaN()),
            "NaN");
  // Shortest form must still round-trip exactly.
  for (const double v : {0.1, 1.0 / 3.0, 6.62607015e-34, 1e300}) {
    EXPECT_EQ(std::stod(format_sample_value(v)), v);
  }
}

TEST(Exposition, JsonEscapeAndNumber) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("q\"b\\"), "q\\\"b\\\\");
  EXPECT_EQ(json_escape("\n\t\r\b\f"), "\\n\\t\\r\\b\\f");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(Exposition, EmptyRegistry) {
  MetricsRegistry reg;
  EXPECT_EQ(to_prometheus(reg.snapshot()), "");
  EXPECT_EQ(to_json(reg.snapshot()), "{\"families\":[]}");
}

TEST(Exposition, PrometheusCounterWithEscapedLabels) {
  MetricsRegistry reg;
  reg.counter("oda_x_total", "events \\ with\nnewline",
              {{"path", "a\\b\"c\""}})
      .inc(3);
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# HELP oda_x_total events \\\\ with\\nnewline\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE oda_x_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("oda_x_total{path=\"a\\\\b\\\"c\\\"\"} 3\n"),
            std::string::npos);
}

TEST(Exposition, PrometheusHistogramIsCumulative) {
  MetricsRegistry reg;
  Histogram& h =
      reg.histogram("oda_h_seconds", "h", std::vector<double>{1, 2}, {});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(5.0);
  const std::string text = to_prometheus(reg.snapshot());
  // Internal counts are per-bucket {1, 1, 1}; exposition must be cumulative.
  EXPECT_NE(text.find("oda_h_seconds_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("oda_h_seconds_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("oda_h_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("oda_h_seconds_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("oda_h_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE oda_h_seconds histogram\n"), std::string::npos);
}

TEST(Exposition, JsonSnapshotShape) {
  MetricsRegistry reg;
  reg.gauge("oda_g", "a \"quoted\" gauge", {{"k", "v"}}).set(1.5);
  Histogram& h = reg.histogram("oda_h_seconds", "h", std::vector<double>{1}, {});
  h.observe(0.5);
  const std::string json = to_json(reg.snapshot());
  EXPECT_NE(json.find("\"name\":\"oda_g\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("a \\\"quoted\\\" gauge"), std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"k\":\"v\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"counts\":[1,0]"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// ------------------------------------------------------------------ tracer

/// Leaves the global tracer exactly as the other tests expect it:
/// disabled, empty, default capacity.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer& tracer = Tracer::global();
    tracer.set_enabled(false);
    tracer.clear();
    tracer.set_capacity(1 << 16);
  }
  void TearDown() override { SetUp(); }
};

TEST_F(TracerTest, RecordAndDrainOrderedByStart) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.record("late", "test", 100, 5);
  tracer.record("early", "test", 10, 3);
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "early");
  EXPECT_EQ(events[0].ts_us, 10u);
  EXPECT_EQ(events[0].dur_us, 3u);
  EXPECT_EQ(events[1].name, "late");
  EXPECT_NE(events[0].tid, 0u);
  EXPECT_EQ(tracer.event_count(), 2u);
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST_F(TracerTest, CapacityCapsAndCountsDrops) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.set_capacity(2);
  tracer.record("a", "test", 1, 1);
  tracer.record("b", "test", 2, 1);
  tracer.record("c", "test", 3, 1);
  EXPECT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST_F(TracerTest, SpanRecordsOnlyWhenEnabled) {
  Tracer& tracer = Tracer::global();
  { TraceSpan span("span.disabled", "test"); }
  EXPECT_EQ(tracer.event_count(), 0u);
  tracer.set_enabled(true);
  { TraceSpan span("span.enabled", "test"); }
  ASSERT_EQ(tracer.event_count(), 1u);
  EXPECT_EQ(tracer.events().front().name, "span.enabled");
  EXPECT_EQ(tracer.events().front().category, "test");
}

TEST_F(TracerTest, ChromeJsonHasCompleteEvents) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.record("chrome.span", "test", 7, 11);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"chrome.span\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":7"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":11"), std::string::npos);
}

TEST_F(TracerTest, MacroCompilesInBothModes) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  { ODA_TRACE_SPAN_CAT("macro.span", "test"); }
  EXPECT_EQ(tracer.event_count(), 1u);
}

// ----------------------------------------------------------------- cells

TEST(CellScope, AccountsRunsAndSeconds) {
  // CellScope writes into the process-global registry, so measure deltas.
  MetricsRegistry& reg = MetricsRegistry::global();
  Histogram& seconds =
      reg.histogram("oda_analytics_run_seconds", "Analytics run latency",
                    {{"capability", "unit.cell"}});
  const std::uint64_t count_before = seconds.count();
  for (int run = 0; run < 2; ++run) {
    ODA_CELL_SCOPE("unit.cell");
  }
  // One series per cell: its _count is the run count.
  EXPECT_EQ(seconds.count(), count_before + 2);
  EXPECT_EQ(reg.snapshot().find("oda_analytics_runs_total"), nullptr);
}

// ----------------------------------------------------------------- health

TEST(PipelineHealth, EmptySnapshotIsHealthy) {
  const PipelineHealthReport report = assess_pipeline_health(MetricsSnapshot{});
  EXPECT_TRUE(report.healthy());
  ASSERT_FALSE(report.checks.empty());
  for (const HealthCheck& check : report.checks) {
    EXPECT_TRUE(check.ok) << check.name;
    EXPECT_EQ(check.detail, "(no data)") << check.name;
  }
}

TEST(PipelineHealth, TraceDropsDegrade) {
  MetricsRegistry reg;
  reg.counter("oda_trace_dropped_total", "drops").inc(3);
  const PipelineHealthReport report = assess_pipeline_health(reg.snapshot());
  EXPECT_FALSE(report.healthy());
  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("DEGRADED"), std::string::npos);
  EXPECT_NE(rendered.find("trace.drops"), std::string::npos);
}

TEST(PipelineHealth, ZeroDropsStayHealthy) {
  MetricsRegistry reg;
  reg.counter("oda_trace_dropped_total", "drops");
  reg.counter("oda_queue_rejected_total", "rejects");
  EXPECT_TRUE(assess_pipeline_health(reg.snapshot()).healthy());
}

TEST(PipelineHealth, SlowCollectorPassDegrades) {
  MetricsRegistry reg;
  Histogram& pass = reg.histogram("oda_collector_pass_seconds", "pass");
  pass.observe(2.5);  // a multi-second mean pass cannot keep any period
  EXPECT_FALSE(assess_pipeline_health(reg.snapshot()).healthy());
}

TEST(PipelineHealth, FastCollectorPassIsHealthy) {
  MetricsRegistry reg;
  Histogram& pass = reg.histogram("oda_collector_pass_seconds", "pass");
  pass.observe(0.002);
  EXPECT_TRUE(assess_pipeline_health(reg.snapshot()).healthy());
}

TEST(PipelineHealth, RenderMetricsTableListsFamilies) {
  MetricsRegistry reg;
  reg.counter("oda_listed_total", "c", {{"k", "v"}}).inc(9);
  Histogram& h = reg.histogram("oda_listed_seconds", "h");
  h.observe(0.5);
  const std::string table = render_metrics_table(reg.snapshot());
  EXPECT_NE(table.find("oda_listed_total{k=v}"), std::string::npos);
  EXPECT_NE(table.find("oda_listed_seconds"), std::string::npos);
  EXPECT_NE(table.find("histogram"), std::string::npos);
}

// --------------------------------------------- pull-model registrations

TEST(Instrumentation, ThreadPoolRegistration) {
  MetricsRegistry reg;
  ThreadPool pool(1);
  {
    const InstrumentationHandles handles =
        register_thread_pool(reg, pool, "test");
    pool.submit([] {});
    pool.wait_idle();
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.total("oda_pool_threads"), 1.0);
    EXPECT_DOUBLE_EQ(snap.total("oda_pool_submitted_total"), 1.0);
    EXPECT_DOUBLE_EQ(snap.total("oda_pool_completed_total"), 1.0);
    EXPECT_DOUBLE_EQ(snap.total("oda_pool_rejected_total"), 0.0);
  }
  // Handles dropped before the pool dies: series must be gone.
  EXPECT_EQ(reg.snapshot().find("oda_pool_threads"), nullptr);
}

TEST(Instrumentation, QueueRegistrations) {
  MetricsRegistry reg;
  BlockingQueue<int> blocking(4);
  const InstrumentationHandles blocking_handles =
      register_blocking_queue(reg, blocking, "blocking_test");
  blocking.push(2);
  blocking.push(3);
  const MetricsSnapshot snap = reg.snapshot();
  const MetricFamily* depth = snap.find("oda_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->values.size(), 1u);  // one series per queue
  EXPECT_DOUBLE_EQ(snap.total("oda_queue_depth"), 2.0);
  EXPECT_DOUBLE_EQ(snap.total("oda_queue_rejected_total"), 0.0);
}

}  // namespace
}  // namespace oda::obs
