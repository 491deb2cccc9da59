// Property, fault-injection, and crash-equivalence tests for the durable
// write-ahead log (src/telemetry/wal.*):
//
//  * codec round-trips of edge values — NaN payloads, infinities, -0.0,
//    denormals, the full int64 TimePoint range — must replay bit-exactly;
//  * every single-byte mutation of a valid segment is rejected or cleanly
//    truncated to a record-aligned prefix, never mis-parsed or crashed on;
//  * FaultFs storage faults (torn writes, flipped CRC bytes, short reads,
//    ENOSPC, fsync failure) degrade the Wal to in-memory-only mode with
//    exact sample conservation (accepted == committed + lost) and flip the
//    oda_wal_degraded gauge the health check reads;
//  * a store rebuilt by replay is bit-identical to one fed the same stream
//    through the normal ingest path (the test_store_equiv surface);
//  * a TSan-visible race test: concurrent appenders plus a flusher.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "telemetry/series_id.hpp"
#include "telemetry/store.hpp"
#include "telemetry/wal.hpp"

namespace oda::telemetry {
namespace {

/// Fresh scratch directory under /tmp, unique per test, removed on setup so
/// reruns never see a previous run's segments.
std::string scratch_dir(const std::string& name) {
  const std::string dir = "/tmp/oda_test_wal_" + name;
  std::string cmd = "rm -rf " + dir;
  (void)std::system(cmd.c_str());
  return dir;
}

bool bits_equal(double a, double b) {
  std::uint64_t ab = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ab, &a, 8);
  std::memcpy(&bb, &b, 8);
  return ab == bb;
}

bool same_reading(const IdReading& a, const IdReading& b) {
  return a.id.value == b.id.value && a.sample.time == b.sample.time &&
         bits_equal(a.sample.value, b.sample.value);
}

/// Interns `n` test-local series paths. Each test uses a distinct prefix so
/// the process-wide interner never aliases two tests' series.
std::vector<SeriesId> make_ids(const std::string& prefix, std::size_t n) {
  std::vector<SeriesId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(
        SeriesInterner::global().intern(prefix + "/s" + std::to_string(i)));
  }
  return ids;
}

/// Writes `readings` through a fresh Wal (recover -> start -> append ->
/// flush -> stop). Returns false if anything degraded along the way.
bool write_wal(const std::string& dir, std::span<const IdReading> readings,
               WalFs* fs = nullptr, std::size_t segment_max = 4u << 20) {
  Wal wal(WalOptions{.dir = dir, .segment_max_bytes = segment_max}, fs);
  std::vector<IdReading> recovered;
  wal.recover(recovered);
  if (!wal.start()) return false;
  const bool appended = wal.append(readings);
  const bool flushed = wal.flush();
  wal.stop();
  return appended && flushed && !wal.degraded();
}

std::vector<IdReading> recover_wal(const std::string& dir,
                                   WalRecoveryStats* stats = nullptr,
                                   WalFs* fs = nullptr) {
  Wal wal(WalOptions{.dir = dir}, fs);
  std::vector<IdReading> out;
  const WalRecoveryStats s = wal.recover(out);
  if (stats != nullptr) *stats = s;
  return out;
}

class WalTest : public ::testing::Test {};

// ----------------------------------------------------------- codec round-trip

TEST_F(WalTest, RoundTripsEdgeValuesBitExactly) {
  const std::string dir = scratch_dir("edge");
  const auto ids = make_ids("walt/edge", 6);

  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  const double sig_nan = std::numeric_limits<double>::signaling_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  constexpr TimePoint kTimeMin = std::numeric_limits<TimePoint>::min();
  constexpr TimePoint kTimeMax = std::numeric_limits<TimePoint>::max();

  const std::vector<IdReading> readings = {
      {ids[0], {0, quiet_nan}},
      {ids[1], {kTimeMax, sig_nan}},
      {ids[2], {kTimeMin, -0.0}},
      {ids[3], {-1, denorm}},
      {ids[4], {1, inf}},
      {ids[5], {kTimeMax, -inf}},
      // Delta swings across the whole int64 range (max -> min -> max).
      {ids[0], {kTimeMin, 1.0}},
      {ids[0], {kTimeMax, -denorm}},
      {ids[1], {42, std::numeric_limits<double>::max()}},
      {ids[1], {41, std::numeric_limits<double>::lowest()}},
  };
  ASSERT_TRUE(write_wal(dir, readings));

  WalRecoveryStats stats;
  const auto recovered = recover_wal(dir, &stats);
  EXPECT_FALSE(stats.tail_truncated);
  ASSERT_EQ(recovered.size(), readings.size());
  for (std::size_t i = 0; i < readings.size(); ++i) {
    EXPECT_TRUE(same_reading(recovered[i], readings[i])) << "reading " << i;
  }
}

TEST_F(WalTest, RotatesSegmentsAndReplaysInOrder) {
  const std::string dir = scratch_dir("rotate");
  const auto ids = make_ids("walt/rotate", 4);
  std::vector<IdReading> readings;
  for (int i = 0; i < 500; ++i) {
    readings.push_back(
        {ids[static_cast<std::size_t>(i) % 4], {i, i * 0.5}});
  }
  // Tiny segment cap + small batches: rotation happens between group
  // commits, so one giant append would still land in a single segment.
  {
    Wal wal(WalOptions{.dir = dir, .segment_max_bytes = 256});
    std::vector<IdReading> rec;
    wal.recover(rec);
    ASSERT_TRUE(wal.start());
    for (std::size_t i = 0; i < readings.size(); i += 10) {
      const std::size_t n = std::min<std::size_t>(10, readings.size() - i);
      ASSERT_TRUE(wal.append(
          std::span<const IdReading>(readings.data() + i, n)));
      ASSERT_TRUE(wal.flush());  // one commit per batch -> many rotations
    }
    wal.stop();
    ASSERT_FALSE(wal.degraded());
  }

  WalRecoveryStats stats;
  const auto recovered = recover_wal(dir, &stats);
  EXPECT_GT(stats.segments_scanned, 1u) << "rotation never happened";
  ASSERT_EQ(recovered.size(), readings.size());
  for (std::size_t i = 0; i < readings.size(); ++i) {
    ASSERT_TRUE(same_reading(recovered[i], readings[i])) << "reading " << i;
  }
}

TEST_F(WalTest, ReplayedStoreIsBitIdenticalToDirectIngest) {
  const std::string dir = scratch_dir("equiv");
  const auto ids = make_ids("walt/equiv", 8);
  std::vector<IdReading> readings;
  for (int i = 0; i < 1000; ++i) {
    const double v = (i % 31 == 0) ? std::nan("") : std::sin(i * 0.1) * 1e6;
    readings.push_back({ids[static_cast<std::size_t>(i) % 8], {i / 8, v}});
  }

  // Reference: the same stream through the plain ingest path, no WAL.
  TimeSeriesStore reference(1 << 10);
  for (const auto& r : readings) reference.insert(r.id, r.sample);

  // Live: WAL attached during ingest, then a fresh store rebuilt by replay.
  {
    TimeSeriesStore live(1 << 10);
    Wal wal(WalOptions{.dir = dir});
    wal.recover_into(live);
    live.set_wal(&wal);
    ASSERT_TRUE(wal.start());
    live.insert_batch(std::span<const IdReading>(readings));
    live.set_wal(nullptr);
    ASSERT_TRUE(wal.flush());
    wal.stop();
    EXPECT_EQ(wal.accepted_samples(), readings.size());
    EXPECT_EQ(wal.committed_samples(), readings.size());
    EXPECT_EQ(wal.lost_samples(), 0u);
  }
  TimeSeriesStore replayed(1 << 10);
  Wal wal2(WalOptions{.dir = dir});
  const WalRecoveryStats stats = wal2.recover_into(replayed);
  EXPECT_EQ(stats.samples_replayed, readings.size());
  EXPECT_FALSE(stats.tail_truncated);

  for (const SeriesId id : ids) {
    const std::string& path = SeriesInterner::global().path(id);
    const SeriesSlice want = reference.query_all(path);
    const SeriesSlice got = replayed.query_all(path);
    ASSERT_EQ(got.times, want.times) << path;
    ASSERT_EQ(got.values.size(), want.values.size()) << path;
    EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                          want.values.size() * sizeof(double)),
              0)
        << path << ": replayed values are not bit-identical";
  }
}

// --------------------------------------------------------- mutation property

TEST_F(WalTest, EverySingleByteMutationTruncatesCleanly) {
  const std::string dir = scratch_dir("mutate");
  const auto ids = make_ids("walt/mutate", 3);
  std::vector<IdReading> readings;
  for (int i = 0; i < 24; ++i) {
    readings.push_back({ids[static_cast<std::size_t>(i) % 3],
                        {i, (i % 7 == 0) ? std::nan("") : i * 1.25}});
  }
  ASSERT_TRUE(write_wal(dir, readings));

  // Baseline: the pristine segment bytes and the decoded sample sequence.
  PosixWalFs posix;
  const auto files = posix.list(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string seg = dir + "/" + files[0];
  std::string pristine;
  ASSERT_TRUE(posix.read_file(seg, pristine));
  const auto baseline = recover_wal(dir);
  ASSERT_EQ(baseline.size(), readings.size());

  const std::uint8_t masks[] = {0x01, 0x80, 0xFF};
  for (std::size_t off = 0; off < pristine.size(); ++off) {
    for (const std::uint8_t mask : masks) {
      std::string mutated = pristine;
      mutated[off] = static_cast<char>(mutated[off] ^ mask);
      {
        std::ofstream f(seg, std::ios::binary | std::ios::trunc);
        f.write(mutated.data(),
                static_cast<std::streamsize>(mutated.size()));
      }
      WalRecoveryStats stats;
      const auto recovered = recover_wal(dir, &stats);
      // The recovered stream must be an exact prefix of the baseline:
      // corruption may only ever shorten the data, never alter it.
      ASSERT_LT(recovered.size(), baseline.size())
          << "offset " << off << " mask " << int(mask)
          << ": mutation went undetected";
      for (std::size_t i = 0; i < recovered.size(); ++i) {
        ASSERT_TRUE(same_reading(recovered[i], baseline[i]))
            << "offset " << off << " mask " << int(mask) << " reading " << i
            << ": mutated segment mis-parsed (not a prefix)";
      }
      EXPECT_TRUE(stats.tail_truncated || stats.truncated_segments > 0)
          << "offset " << off << " mask " << int(mask);
      EXPECT_FALSE(stats.truncate_reason.empty());
    }
  }
}

TEST_F(WalTest, TornTailIsTruncatedAndEarlierRecordsSurvive) {
  const std::string dir = scratch_dir("torn");
  const auto ids = make_ids("walt/torn", 2);
  std::vector<IdReading> readings;
  for (int i = 0; i < 40; ++i) {
    readings.push_back({ids[static_cast<std::size_t>(i) % 2], {i, i * 2.0}});
  }
  ASSERT_TRUE(write_wal(dir, readings));

  PosixWalFs posix;
  const auto files = posix.list(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string seg = dir + "/" + files[0];
  const std::int64_t size = posix.file_size(seg);
  ASSERT_GT(size, 16);
  // Chop mid-record: everything decodable before the cut must survive,
  // everything after must be accounted as truncated.
  ASSERT_TRUE(posix.truncate_file(seg, static_cast<std::uint64_t>(size) - 5));

  WalRecoveryStats stats;
  const auto recovered = recover_wal(dir, &stats);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.truncate_reason, "short_record");
  EXPECT_GT(stats.truncated_bytes, 0u);
  ASSERT_LE(recovered.size(), readings.size());
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    ASSERT_TRUE(same_reading(recovered[i], readings[i]));
  }
}

// ----------------------------------------------------------- fault injection

TEST_F(WalTest, TornWriteDegradesWithExactConservation) {
  const std::string dir = scratch_dir("fault_torn");
  const auto ids = make_ids("walt/fault_torn", 2);
  PosixWalFs posix;
  FaultFs faults(posix);

  Wal wal(WalOptions{.dir = dir}, &faults);
  std::vector<IdReading> recovered;
  wal.recover(recovered);
  ASSERT_TRUE(wal.start());

  std::vector<IdReading> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back({ids[static_cast<std::size_t>(i) % 2], {i, i * 1.0}});
  }
  ASSERT_TRUE(wal.append(std::span<const IdReading>(batch)));
  ASSERT_TRUE(wal.flush());

  // Arm a torn write: next commit writes a partial record then fails.
  faults.fail_next_append_after(7);
  wal.append(std::span<const IdReading>(batch));
  wal.flush();  // forces the commit; returns false once degraded
  EXPECT_TRUE(wal.degraded());
  EXPECT_EQ(faults.appends_failed(), 1u);

  // Further appends are refused and counted lost, never blocking.
  EXPECT_FALSE(wal.append(std::span<const IdReading>(batch)));
  wal.stop();
  EXPECT_EQ(wal.accepted_samples(), 3 * batch.size());
  EXPECT_EQ(wal.committed_samples() + wal.lost_samples(),
            wal.accepted_samples());
  EXPECT_EQ(wal.committed_samples(), batch.size());

  // Recovery after the torn commit: the first (fsynced) batch survives
  // bit-exactly; the torn tail is rolled back or truncated.
  WalRecoveryStats stats;
  const auto replay = recover_wal(dir, &stats);
  ASSERT_EQ(replay.size(), batch.size());
  for (std::size_t i = 0; i < replay.size(); ++i) {
    ASSERT_TRUE(same_reading(replay[i], batch[i]));
  }
}

TEST_F(WalTest, TornTailWithFailedRollbackIsTruncatedByRecovery) {
  // The writer's rollback truncate fails too, so the torn bytes stay on
  // disk. Recovery's first-invalid-record rule must still replay exactly
  // the acknowledged prefix, and a restarted Wal must append after it.
  const std::string dir = scratch_dir("fault_torn_no_rollback");
  const auto ids = make_ids("walt/fault_torn_no_rollback", 2);
  PosixWalFs posix;
  FaultFs faults(posix);

  std::vector<IdReading> acked;
  for (int i = 0; i < 16; ++i) {
    acked.push_back({ids[static_cast<std::size_t>(i) % 2], {i, i * 1.0}});
  }
  {
    Wal wal(WalOptions{.dir = dir}, &faults);
    std::vector<IdReading> recovered;
    wal.recover(recovered);
    ASSERT_TRUE(wal.start());
    ASSERT_TRUE(wal.append(std::span<const IdReading>(acked)));
    ASSERT_TRUE(wal.flush());

    faults.fail_next_append_after(7);
    faults.fail_truncate(1);
    wal.append(std::span<const IdReading>(acked));
    EXPECT_FALSE(wal.flush());
    EXPECT_TRUE(wal.degraded());
    EXPECT_EQ(faults.appends_failed(), 1u);
    wal.stop();
  }

  TimeSeriesStore store(1 << 10);
  Wal restarted(WalOptions{.dir = dir});
  const WalRecoveryStats stats = restarted.recover_into(store);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.truncate_reason, "short_record");
  EXPECT_EQ(stats.truncated_bytes, 7u);
  EXPECT_EQ(stats.samples_replayed, acked.size());
  for (std::size_t s = 0; s < ids.size(); ++s) {
    const SeriesSlice got =
        store.query_all(SeriesInterner::global().path(ids[s]));
    ASSERT_EQ(got.size(), acked.size() / 2);
    for (std::size_t k = 0; k < got.size(); ++k) {
      const IdReading& want = acked[2 * k + s];
      EXPECT_EQ(got.times[k], want.sample.time);
      EXPECT_TRUE(bits_equal(got.values[k], want.sample.value));
    }
  }

  std::vector<IdReading> later;
  for (int i = 16; i < 24; ++i) {
    later.push_back({ids[static_cast<std::size_t>(i) % 2], {i, i * 1.0}});
  }
  ASSERT_TRUE(restarted.start());
  ASSERT_TRUE(restarted.append(std::span<const IdReading>(later)));
  ASSERT_TRUE(restarted.flush());
  restarted.stop();
  EXPECT_FALSE(restarted.degraded());

  WalRecoveryStats again;
  const auto replay = recover_wal(dir, &again);
  EXPECT_FALSE(again.tail_truncated);
  ASSERT_EQ(replay.size(), acked.size() + later.size());
  for (std::size_t i = 0; i < acked.size(); ++i) {
    ASSERT_TRUE(same_reading(replay[i], acked[i]));
  }
  for (std::size_t i = 0; i < later.size(); ++i) {
    ASSERT_TRUE(same_reading(replay[acked.size() + i], later[i]));
  }
}

TEST_F(WalTest, SilentCorruptionIsCaughtByCrcOnRecovery) {
  const std::string dir = scratch_dir("fault_crc");
  const auto ids = make_ids("walt/fault_crc", 1);
  PosixWalFs posix;
  FaultFs faults(posix);

  Wal wal(WalOptions{.dir = dir}, &faults);
  std::vector<IdReading> recovered;
  wal.recover(recovered);
  ASSERT_TRUE(wal.start());
  std::vector<IdReading> batch = {{ids[0], {1, 1.0}}, {ids[0], {2, 2.0}}};
  ASSERT_TRUE(wal.append(std::span<const IdReading>(batch)));
  ASSERT_TRUE(wal.flush());

  // Flip a byte inside the NEXT commit's buffer after the CRC was computed:
  // the write "succeeds" (silent media corruption), so the Wal stays
  // healthy — only recovery can catch it.
  faults.corrupt_next_append(/*offset=*/30, /*mask=*/0x40);
  std::vector<IdReading> batch2 = {{ids[0], {3, 3.0}}, {ids[0], {4, 4.0}}};
  ASSERT_TRUE(wal.append(std::span<const IdReading>(batch2)));
  ASSERT_TRUE(wal.flush());
  EXPECT_FALSE(wal.degraded());
  wal.stop();

  WalRecoveryStats stats;
  const auto replay = recover_wal(dir, &stats);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.truncate_reason, "crc_mismatch");
  // The fsynced first commit survives; the corrupted one is gone entirely.
  ASSERT_EQ(replay.size(), batch.size());
  for (std::size_t i = 0; i < replay.size(); ++i) {
    ASSERT_TRUE(same_reading(replay[i], batch[i]));
  }
}

TEST_F(WalTest, EnospcDegradesAndFlipsTheHealthGauge) {
  const std::string dir = scratch_dir("fault_enospc");
  const auto ids = make_ids("walt/fault_enospc", 1);
  PosixWalFs posix;
  FaultFs faults(posix);

  Wal wal(WalOptions{.dir = dir}, &faults);
  std::vector<IdReading> recovered;
  wal.recover(recovered);
  ASSERT_TRUE(wal.start());
  std::vector<IdReading> batch;
  for (int i = 0; i < 64; ++i) batch.push_back({ids[0], {i, i * 1.0}});
  ASSERT_TRUE(wal.append(std::span<const IdReading>(batch)));
  ASSERT_TRUE(wal.flush());

  // Exhaust the disk: the next commit hits ENOSPC mid-write.
  faults.set_space_budget(10);
  wal.append(std::span<const IdReading>(batch));
  wal.flush();
  EXPECT_TRUE(wal.degraded());
  wal.stop();
  EXPECT_EQ(wal.committed_samples() + wal.lost_samples(),
            wal.accepted_samples());

  // The degradation is observable: gauge raised, health check failing.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.total("oda_wal_degraded"), 1.0);
  const obs::PipelineHealthReport report = obs::assess_pipeline_health(snap);
  bool found = false;
  for (const auto& check : report.checks) {
    if (check.name == "wal.degraded") {
      found = true;
      EXPECT_FALSE(check.ok) << check.detail;
    }
  }
  EXPECT_TRUE(found) << "health report has no wal.degraded check";
  // Reset the process-wide gauge so later tests (and suites sharing the
  // registry) see a healthy WAL again.
  // Note: enter_degraded set it to 1; a fresh Wal never clears it because
  // degradation is per-Wal-instance, so the test restores it explicitly.
  obs::MetricsRegistry::global().gauge("oda_wal_degraded", "").set(0.0);
}

TEST_F(WalTest, FsyncFailureDegradesButKeepsWrittenPrefix) {
  const std::string dir = scratch_dir("fault_fsync");
  const auto ids = make_ids("walt/fault_fsync", 1);
  PosixWalFs posix;
  FaultFs faults(posix);

  Wal wal(WalOptions{.dir = dir}, &faults);
  std::vector<IdReading> recovered;
  wal.recover(recovered);
  ASSERT_TRUE(wal.start());
  std::vector<IdReading> batch = {{ids[0], {1, 1.0}}};
  ASSERT_TRUE(wal.append(std::span<const IdReading>(batch)));
  ASSERT_TRUE(wal.flush());

  faults.fail_fsync(1);
  wal.append(std::span<const IdReading>(batch));
  wal.flush();
  EXPECT_TRUE(wal.degraded());
  EXPECT_EQ(faults.fsyncs_failed(), 1u);
  wal.stop();
  EXPECT_EQ(wal.committed_samples() + wal.lost_samples(),
            wal.accepted_samples());
  obs::MetricsRegistry::global().gauge("oda_wal_degraded", "").set(0.0);
}

TEST_F(WalTest, ShortReadsTruncateInsteadOfCrashing) {
  const std::string dir = scratch_dir("fault_short");
  const auto ids = make_ids("walt/fault_short", 2);
  std::vector<IdReading> readings;
  for (int i = 0; i < 32; ++i) {
    readings.push_back({ids[static_cast<std::size_t>(i) % 2], {i, i * 3.0}});
  }
  ASSERT_TRUE(write_wal(dir, readings));

  PosixWalFs posix;
  FaultFs faults(posix);
  faults.set_short_read(20);  // every read returns at most 20 bytes
  WalRecoveryStats stats;
  const auto replay = recover_wal(dir, &stats, &faults);
  EXPECT_TRUE(stats.tail_truncated);
  // 20 bytes = magic + a partial record header: nothing decodable.
  EXPECT_TRUE(replay.empty());
  for (std::size_t i = 0; i < replay.size(); ++i) {
    ASSERT_TRUE(same_reading(replay[i], readings[i]));
  }
}

// -------------------------------------------------------------- concurrency

TEST_F(WalTest, ConcurrentAppendersConserveEverySample) {
  const std::string dir = scratch_dir("race");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;

  Wal wal(WalOptions{.dir = dir, .queue_capacity = 4});
  std::vector<IdReading> recovered;
  wal.recover(recovered);
  ASSERT_TRUE(wal.start());

  // Disjoint series per thread: the global interleaving is unspecified, but
  // each thread's per-series sample order must survive replay.
  std::vector<std::vector<SeriesId>> ids;
  for (int t = 0; t < kThreads; ++t) {
    ids.push_back(make_ids("walt/race_t" + std::to_string(t), 2));
  }
  std::atomic<bool> flusher_stop{false};
  std::thread flusher([&] {
    while (!flusher_stop.load(std::memory_order_acquire)) {
      wal.flush();
    }
  });
  std::vector<std::thread> appenders;
  for (int t = 0; t < kThreads; ++t) {
    appenders.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const IdReading r{ids[static_cast<std::size_t>(t)]
                             [static_cast<std::size_t>(i) % 2],
                          {i, t * 1000.0 + i}};
        ASSERT_TRUE(wal.append(std::span<const IdReading>(&r, 1)));
      }
    });
  }
  for (auto& th : appenders) th.join();
  flusher_stop.store(true, std::memory_order_release);
  flusher.join();
  ASSERT_TRUE(wal.flush());
  wal.stop();

  const std::size_t total = std::size_t{kThreads} * kPerThread;
  EXPECT_EQ(wal.accepted_samples(), total);
  EXPECT_EQ(wal.committed_samples(), total);
  EXPECT_EQ(wal.lost_samples(), 0u);

  const auto replay = recover_wal(dir);
  ASSERT_EQ(replay.size(), total);
  // Per-thread, per-series timestamps must be strictly increasing in replay
  // order (each appender wrote them that way).
  std::map<std::uint32_t, TimePoint> last_time;
  std::map<std::uint32_t, std::size_t> count;
  for (const auto& r : replay) {
    const auto it = last_time.find(r.id.value);
    if (it != last_time.end()) {
      EXPECT_LT(it->second, r.sample.time) << "series " << r.id.value;
    }
    last_time[r.id.value] = r.sample.time;
    ++count[r.id.value];
  }
  for (const auto& [sid, n] : count) {
    EXPECT_EQ(n, std::size_t{kPerThread} / 2) << "series " << sid;
  }
}

// ------------------------------------------------------------------- crc32c

TEST_F(WalTest, Crc32cMatchesKnownVectors) {
  // RFC 3720 test vector: crc32c("123456789") == 0xE3069283.
  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
  // Seed chaining: crc(a+b) == crc(b, seed=crc(a)).
  EXPECT_EQ(crc32c(digits + 4, 5, crc32c(digits, 4)), crc32c(digits, 9));
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

}  // namespace
}  // namespace oda::telemetry
