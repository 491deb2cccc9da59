// Continuous-profiling layer tests: the critical-path analyzer's
// deterministic algorithm against hand-built span DAGs (exact expected
// numbers) and against a golden report over complete traces cut from a real
// self_monitor run (tests/data/critical_path_golden.{csv,txt}), the
// sampling profiler's lifecycle and folded output, and the wait-attribution
// exports (pool task timing histograms, per-rank lock contention).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/contention.hpp"
#include "common/csv.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "common/thread_watch.hpp"
#include "obs/critical_path.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace oda {
namespace {

using obs::CriticalPathReport;
using obs::TraceEvent;
using obs::TraceEventKind;

TraceEvent span(const char* name, std::uint64_t trace_id,
                std::uint64_t span_id, std::uint64_t parent_id,
                std::uint64_t ts_us, std::uint64_t dur_us) {
  TraceEvent ev;
  ev.name = name;
  ev.category = "test";
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.kind = TraceEventKind::kSpan;
  ev.trace_id = trace_id;
  ev.span_id = span_id;
  ev.parent_id = parent_id;
  return ev;
}

// ---------------------------------------------------- critical-path DAG

// Hand-built tree with every interesting overlap:
//   root [0,100)
//     stepA [10,40)
//     stepB [30,80)       (overlaps stepA on [30,40))
//       stepC [50,70)
// Frontier attribution from the window end backwards gives
//   root: (80,100] + (0,10]          = 30 us on-path
//   stepB: (70,80] + (30,50]         = 30 us
//   stepC: (50,70]                   = 20 us
//   stepA: (10,30] (clipped at B's start) = 20 us
// Self times: root 100-|[10,80)|=30, stepA 30, stepB 50-20=30, stepC 20;
// busy 110 -> parallelism 1.10 over a 100 us root.
std::vector<TraceEvent> overlap_tree() {
  return {
      span("root", 0xabc, 1, 0, 0, 100),
      span("stepA", 0xabc, 2, 1, 10, 30),
      span("stepB", 0xabc, 3, 1, 30, 50),
      span("stepC", 0xabc, 4, 3, 50, 20),
  };
}

TEST(CriticalPath, HandBuiltDagExactNumbers) {
  const auto reports = obs::analyze_critical_path(overlap_tree());
  ASSERT_EQ(reports.size(), 1u);
  const CriticalPathReport& r = reports[0];
  EXPECT_EQ(r.trace_id, 0xabcu);
  EXPECT_EQ(r.root_span_id, 1u);
  EXPECT_EQ(r.root_name, "root");
  EXPECT_EQ(r.root_start_us, 0u);
  EXPECT_EQ(r.root_dur_us, 100u);
  EXPECT_EQ(r.critical_path_us, 100u);  // root covers its whole window
  EXPECT_EQ(r.total_busy_us, 110u);
  EXPECT_EQ(r.span_count, 4u);
  EXPECT_DOUBLE_EQ(r.parallelism, 1.10);

  // Sorted cp desc, self desc, name asc: root ties stepB on both numbers.
  ASSERT_EQ(r.top.size(), 4u);
  EXPECT_EQ(r.top[0].name, "root");
  EXPECT_EQ(r.top[0].cp_us, 30u);
  EXPECT_EQ(r.top[0].self_us, 30u);
  EXPECT_EQ(r.top[0].count, 1u);
  EXPECT_EQ(r.top[1].name, "stepB");
  EXPECT_EQ(r.top[1].cp_us, 30u);
  EXPECT_EQ(r.top[1].self_us, 30u);
  EXPECT_EQ(r.top[2].name, "stepA");
  EXPECT_EQ(r.top[2].cp_us, 20u);
  EXPECT_EQ(r.top[2].self_us, 30u);
  EXPECT_EQ(r.top[3].name, "stepC");
  EXPECT_EQ(r.top[3].cp_us, 20u);
  EXPECT_EQ(r.top[3].self_us, 20u);
}

TEST(CriticalPath, RenderExactText) {
  const std::string text =
      obs::render_critical_path(obs::analyze_critical_path(overlap_tree()));
  EXPECT_EQ(text,
            "trace 0000000000000abc root 'root' dur 0.100 ms "
            "critical_path 0.100 ms busy 0.110 ms parallelism 1.10 spans 4\n"
            "  root                             count      1 "
            "self      0.030 ms on-path      0.030 ms\n"
            "  stepB                            count      1 "
            "self      0.030 ms on-path      0.030 ms\n"
            "  stepA                            count      1 "
            "self      0.030 ms on-path      0.020 ms\n"
            "  stepC                            count      1 "
            "self      0.020 ms on-path      0.020 ms\n");
}

TEST(CriticalPath, RenderEmptyInput) {
  EXPECT_EQ(obs::render_critical_path({}), "no traced spans\n");
}

TEST(CriticalPath, OrphanSubtreeBecomesItsOwnRoot) {
  // Parent id 99 never appears (ring eviction in practice): the orphan
  // roots its own report within the same trace.
  std::vector<TraceEvent> events = {
      span("root", 5, 1, 0, 0, 50),
      span("orphan", 5, 2, 99, 200, 80),
      span("orphan.child", 5, 3, 2, 210, 20),
  };
  const auto reports = obs::analyze_critical_path(events);
  ASSERT_EQ(reports.size(), 2u);
  // Sorted by root duration descending.
  EXPECT_EQ(reports[0].root_name, "orphan");
  EXPECT_EQ(reports[0].root_dur_us, 80u);
  EXPECT_EQ(reports[0].span_count, 2u);
  EXPECT_EQ(reports[1].root_name, "root");
  EXPECT_EQ(reports[1].root_dur_us, 50u);
}

TEST(CriticalPath, IgnoresInstantsAndUntracedSpans) {
  std::vector<TraceEvent> events = {span("root", 7, 1, 0, 0, 10)};
  TraceEvent instant = span("mark", 7, 2, 1, 5, 0);
  instant.kind = TraceEventKind::kInstant;
  events.push_back(instant);
  events.push_back(span("untraced", 0, 3, 0, 0, 1000));
  const auto reports = obs::analyze_critical_path(events);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].span_count, 1u);
  EXPECT_EQ(reports[0].root_dur_us, 10u);
}

TEST(CriticalPath, ZeroDurationRootHasZeroParallelism) {
  const auto reports =
      obs::analyze_critical_path({span("tick", 9, 1, 0, 42, 0)});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].root_dur_us, 0u);
  EXPECT_EQ(reports[0].critical_path_us, 0u);
  EXPECT_DOUBLE_EQ(reports[0].parallelism, 0.0);
}

TEST(CriticalPath, DuplicateSpanIdKeepsFirstByTimestamp) {
  // A tracer never emits duplicates; the analyzer's contract is to keep
  // the earliest occurrence deterministically.
  std::vector<TraceEvent> events = {
      span("late", 11, 1, 0, 100, 5),
      span("early", 11, 1, 0, 0, 50),
  };
  const auto reports = obs::analyze_critical_path(events);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].root_name, "early");
  EXPECT_EQ(reports[0].root_dur_us, 50u);
}

TEST(CriticalPath, SelfParentBecomesRootAndCyclesDrop) {
  // span 1 parents itself -> treated as a root; spans 2 and 3 parent each
  // other -> unreachable from any root, so they contribute no report.
  std::vector<TraceEvent> events = {
      span("selfie", 13, 1, 1, 0, 10),
      span("cycleA", 13, 2, 3, 0, 10),
      span("cycleB", 13, 3, 2, 0, 10),
  };
  const auto reports = obs::analyze_critical_path(events);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].root_name, "selfie");
  EXPECT_EQ(reports[0].span_count, 1u);
}

TEST(CriticalPath, TopNTruncates) {
  std::vector<TraceEvent> events = {span("root", 17, 1, 0, 0, 100)};
  const char* names[] = {"c0", "c1", "c2", "c3", "c4"};
  for (std::uint64_t i = 0; i < 5; ++i) {
    events.push_back(span(names[i], 17, 2 + i, 1, i * 10, 10));
  }
  const auto reports = obs::analyze_critical_path(events, /*top_n=*/3);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].top.size(), 3u);
  EXPECT_EQ(reports[0].span_count, 6u);
}

TEST(CriticalPath, ReportsSortedAcrossTraces) {
  std::vector<TraceEvent> events = {
      span("short", 30, 1, 0, 0, 10),
      span("long", 20, 1, 0, 0, 500),
      span("mid", 40, 1, 0, 0, 100),
  };
  const auto reports = obs::analyze_critical_path(events);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].root_name, "long");
  EXPECT_EQ(reports[1].root_name, "mid");
  EXPECT_EQ(reports[2].root_name, "short");
}

std::string read_test_data(const std::string& name) {
  std::ifstream in(std::string(ODA_TEST_DATA_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Every span of eight complete traces from a real self_monitor run: one
// collector.collect pass whose pool fan-out ran on three threads, and
// single-root analytics-cell and sim.step traces. Ids are 16-char hex, as
// in the Chrome trace export.
std::vector<TraceEvent> load_golden_events() {
  const CsvTable table = parse_csv(read_test_data("critical_path_golden.csv"));
  const std::size_t name = table.column("name");
  const std::size_t trace_id = table.column("trace_id");
  const std::size_t span_id = table.column("span_id");
  const std::size_t parent_id = table.column("parent_id");
  const std::size_t ts_us = table.column("ts_us");
  const std::size_t dur_us = table.column("dur_us");
  const std::size_t tid = table.column("tid");
  const std::size_t kind = table.column("kind");
  std::vector<TraceEvent> events;
  for (const std::vector<std::string>& row : table.rows) {
    TraceEvent ev;
    ev.name = row[name];
    ev.trace_id = std::stoull(row[trace_id], nullptr, 16);
    ev.span_id = std::stoull(row[span_id], nullptr, 16);
    ev.parent_id = std::stoull(row[parent_id], nullptr, 16);
    ev.ts_us = std::stoull(row[ts_us]);
    ev.dur_us = std::stoull(row[dur_us]);
    ev.tid = static_cast<std::uint32_t>(std::stoul(row[tid]));
    ev.kind = row[kind] == "instant" ? TraceEventKind::kInstant
                                     : TraceEventKind::kSpan;
    events.push_back(std::move(ev));
  }
  return events;
}

TEST(CriticalPath, GoldenRealTrace) {
  const std::vector<TraceEvent> events = load_golden_events();
  ASSERT_EQ(events.size(), 713u);
  std::set<std::uint32_t> tids;
  for (const TraceEvent& ev : events) tids.insert(ev.tid);
  EXPECT_GE(tids.size(), 2u) << "the fixture must hold a multi-thread trace";
  EXPECT_EQ(obs::render_critical_path(obs::analyze_critical_path(events)),
            read_test_data("critical_path_golden.txt"));
}

// ------------------------------------------------------- wait attribution

TEST(WaitAttribution, PoolTaskTimingHistogramsCountCompletedTasks) {
  obs::MetricsRegistry registry;
  ThreadPool pool(2);
  const auto handles = obs::register_thread_pool(registry, pool, "test");
  constexpr int kTasks = 32;
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), kTasks);

  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricFamily* wait = snap.find("oda_pool_task_queue_wait_seconds");
  const obs::MetricFamily* run = snap.find("oda_pool_task_run_seconds");
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(wait->histograms.size(), 1u);
  ASSERT_EQ(run->histograms.size(), 1u);
  EXPECT_EQ(wait->histograms[0].count, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(run->histograms[0].count, static_cast<std::uint64_t>(kTasks));
  // Parked-worker gauge exists and reads a sane value (both workers idle
  // once wait_idle returned, but a worker may still be between tasks).
  const obs::MetricFamily* parked = snap.find("oda_pool_workers_parked");
  ASSERT_NE(parked, nullptr);
  ASSERT_EQ(parked->values.size(), 1u);
  EXPECT_LE(parked->values[0].value, 2.0);
}

TEST(WaitAttribution, LockContentionExportsPerRankHistogram) {
  contention::reset();
  obs::MetricsRegistry registry;
  const auto handles = obs::register_lock_contention(registry);

  // Force a contended acquisition on a ranked mutex.
  Mutex mu(LockRankId::kBus);
  std::atomic<bool> held{false};
  std::thread holder([&] {
    MutexLock lock(mu);
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  while (!held.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  {
    MutexLock lock(mu);
    EXPECT_GT(lock.waited_s(), 0.0);
  }
  holder.join();

  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricFamily* fam = snap.find("oda_lock_wait_seconds");
  ASSERT_NE(fam, nullptr);
  // One series per rank, registered eagerly.
  EXPECT_EQ(fam->histograms.size(), static_cast<std::size_t>(kLockRankCount));
  bool found = false;
  for (const auto& h : fam->histograms) {
    ASSERT_EQ(h.labels.size(), 1u);
    EXPECT_EQ(h.labels[0].first, "rank");
    if (h.labels[0].second == to_string(LockRankId::kBus)) {
      found = true;
      EXPECT_GE(h.count, 1u);
      EXPECT_GT(h.sum, 0.0);
      EXPECT_EQ(h.bounds.size(), contention::kWaitBounds.size());
      EXPECT_EQ(h.counts.size(), contention::kWaitBounds.size() + 1);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GE(snap.total("oda_lock_contended_total"), 1.0);
  contention::reset();
}

// ---------------------------------------------------------- profiler

TEST(Profiler, LifecycleStartStopRestart) {
  obs::SamplingProfiler& prof = obs::SamplingProfiler::global();
  EXPECT_FALSE(obs::SamplingProfiler::active());
  obs::ProfilerOptions opts;
  opts.interval_us = 1000;
  ASSERT_TRUE(prof.start(opts));
  EXPECT_TRUE(obs::SamplingProfiler::active());
  EXPECT_TRUE(prof.running());
  EXPECT_FALSE(prof.start(opts));  // already running
  prof.stop();
  EXPECT_FALSE(obs::SamplingProfiler::active());
  ASSERT_TRUE(prof.start(opts));  // restart works
  prof.stop();
  prof.clear();
  EXPECT_TRUE(prof.samples().empty());
}

TEST(Profiler, SamplesWatchedThreadAndFoldsStacks) {
  WatchedThreadScope scope("test.main");
  obs::SamplingProfiler& prof = obs::SamplingProfiler::global();
  obs::ProfilerOptions opts;
  opts.interval_us = 500;
  ASSERT_TRUE(prof.start(opts));
  // Busy-spin until at least a few samples landed (generous deadline: CI
  // machines stall; the watcher fires every 500 us).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  volatile double sink = 0.0;
  while (prof.sampled_total() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  }
  prof.stop();
  EXPECT_GE(prof.sampled_total(), 3u);
  EXPECT_GE(prof.thread_count(), 1u);
  EXPECT_GE(prof.signals_sent(), prof.sampled_total());

  const auto samples = prof.samples();
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    EXPECT_FALSE(s.pcs.empty());
    EXPECT_LE(s.pcs.size(), obs::kMaxProfFrames);
  }

  // Folded output: "stack count" lines, role prefix first.
  const std::string folded = prof.folded();
  ASSERT_FALSE(folded.empty());
  std::size_t pos = 0;
  while (pos < folded.size()) {
    const std::size_t eol = folded.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = folded.substr(pos, eol - pos);
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.rfind("test.main;", 0), 0u) << line;
    const std::string count = line.substr(space + 1);
    EXPECT_GT(std::stoull(count), 0u) << line;
    pos = eol + 1;
  }
  prof.clear();
}

TEST(Profiler, SecondInstanceCannotStartWhileGlobalRuns) {
  obs::SamplingProfiler& prof = obs::SamplingProfiler::global();
  ASSERT_TRUE(prof.start());
  obs::SamplingProfiler other;
  EXPECT_FALSE(other.start());  // handler/TLS are process-global
  prof.stop();
  prof.clear();
}

TEST(Profiler, RegisterProfilerExportsCounters) {
  obs::MetricsRegistry registry;
  obs::SamplingProfiler& prof = obs::SamplingProfiler::global();
  const auto handles = obs::register_profiler(registry, prof, "test");
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_NE(snap.find("oda_profiler_samples_total"), nullptr);
  EXPECT_NE(snap.find("oda_profiler_truncated_total"), nullptr);
  EXPECT_NE(snap.find("oda_profiler_threads_watched"), nullptr);
}

}  // namespace
}  // namespace oda
