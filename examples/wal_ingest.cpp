// WAL crash-recovery harness: a deterministic ingest stream whose every
// prefix is reproducible from the seed, so a recovered WAL can be checked
// for *exact* sample conservation after a SIGKILL at any instant
// (scripts/crash_restart.py drives this binary).
//
//   wal_ingest ingest  <dir> [--seed S] [--paths P] [--batches N]
//                            [--batch-size B] [--batch-sleep-us U]
//                            [--flush-every F] [--progress FILE]
//   wal_ingest verify  <dir> [--seed S] [--paths P] [--batch-size B]
//                            [--progress FILE]
//   wal_ingest inspect <dir>
//
// ingest: recovers the existing WAL (verifying the recovered readings are
// an exact prefix of the deterministic stream), then resumes the stream
// from that position, appending batch after batch through the store's
// write-ahead path. After every F batches it flushes the WAL and appends an
// ack line "flushed <total-samples>" to the progress file — each ack is a
// durability promise the verifier holds recovery to. Exits 0 after N
// batches (orderly stop: flush + fsync, no tail to truncate).
//
// verify: recovers into a fresh store and asserts (a) the recovered
// readings are bit-identical to the first K samples of the stream, (b) K
// covers the last acked flush, and (c) a reference store fed that same
// prefix matches the replayed store sample for sample (times and raw value
// bits). Prints "verified K samples" and exits nonzero on any mismatch.
//
// inspect: prints recovery stats; exits 1 iff the tail was truncated (used
// to regression-test that an orderly stop leaves a clean tail).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "telemetry/store.hpp"
#include "telemetry/wal.hpp"

namespace {

using oda::telemetry::IdReading;
using oda::telemetry::SeriesId;
using oda::telemetry::SeriesInterner;
using oda::telemetry::TimeSeriesStore;
using oda::telemetry::Wal;
using oda::telemetry::WalOptions;
using oda::telemetry::WalRecoveryStats;

struct Args {
  std::string mode;
  std::string dir;
  std::uint64_t seed = 7;
  std::size_t paths = 16;
  std::size_t batches = 1000000;
  std::size_t batch_size = 64;
  std::size_t flush_every = 4;
  long batch_sleep_us = 200;
  std::string progress;
};

/// Sample `g` (global index) of the stream: path index, monotone per-series
/// timestamps, and a value that is NaN every 97th sample (bit-exactness
/// must survive NaN payloads) and otherwise derived from splitmix64 so
/// every bit pattern is seed-reproducible.
IdReading stream_sample(const Args& a,
                        const std::vector<SeriesId>& ids, std::uint64_t g) {
  const std::size_t path_ix = static_cast<std::size_t>(g % a.paths);
  const auto time = static_cast<oda::TimePoint>(g / a.paths);
  std::uint64_t state = a.seed ^ (g * 0x9E3779B97F4A7C15ULL);
  const std::uint64_t bits = oda::splitmix64(state);
  const double value = (g % 97 == 0)
                           ? std::nan("")
                           : static_cast<double>(bits >> 11) * 0x1.0p-53;
  return IdReading{ids[path_ix], {time, value}};
}

std::vector<SeriesId> stream_ids(const Args& a) {
  std::vector<SeriesId> ids;
  ids.reserve(a.paths);
  for (std::size_t i = 0; i < a.paths; ++i) {
    ids.push_back(SeriesInterner::global().intern(
        "walho/" + std::to_string(a.seed) + "/s" + std::to_string(i)));
  }
  return ids;
}

bool bits_equal(double a, double b) {
  std::uint64_t ab = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ab, &a, 8);
  std::memcpy(&bb, &b, 8);
  return ab == bb;
}

/// Asserts `recovered` is exactly the first recovered.size() samples of the
/// deterministic stream. Returns false (with a diagnostic) on any deviation.
bool check_prefix(const Args& a, const std::vector<SeriesId>& ids,
                  const std::vector<IdReading>& recovered) {
  for (std::uint64_t g = 0; g < recovered.size(); ++g) {
    const IdReading expect = stream_sample(a, ids, g);
    const IdReading& got = recovered[g];
    if (got.id.value != expect.id.value ||
        got.sample.time != expect.sample.time ||
        !bits_equal(got.sample.value, expect.sample.value)) {
      std::fprintf(stderr,
                   "prefix mismatch at sample %llu: got (id=%u t=%lld) "
                   "expected (id=%u t=%lld)\n",
                   static_cast<unsigned long long>(g), got.id.value,
                   static_cast<long long>(got.sample.time), expect.id.value,
                   static_cast<long long>(expect.sample.time));
      return false;
    }
  }
  return true;
}

/// Last "flushed N" ack in the progress file, or 0 when absent.
std::uint64_t last_ack(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  std::uint64_t ack = 0;
  char line[128];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long n = 0;
    if (std::sscanf(line, "flushed %llu", &n) == 1) ack = n;
  }
  std::fclose(f);
  return ack;
}

int run_ingest(const Args& a) {
  const std::vector<SeriesId> ids = stream_ids(a);
  TimeSeriesStore store(1 << 12);
  Wal wal(WalOptions{.dir = a.dir});
  std::vector<IdReading> recovered;
  const WalRecoveryStats stats = wal.recover(recovered);
  if (!check_prefix(a, ids, recovered)) return 2;
  store.insert_batch(std::span<const IdReading>(recovered));
  store.set_wal(&wal);
  if (!wal.start()) {
    std::fprintf(stderr, "wal: directory %s unusable\n", a.dir.c_str());
    return 3;
  }
  std::printf("resuming stream at sample %zu (%llu truncated bytes)\n",
              recovered.size(),
              static_cast<unsigned long long>(stats.truncated_bytes));
  std::fflush(stdout);

  std::FILE* progress = nullptr;
  if (!a.progress.empty()) {
    progress = std::fopen(a.progress.c_str(), "a");
    if (progress == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", a.progress.c_str());
      return 3;
    }
  }
  std::uint64_t g = recovered.size();
  std::vector<IdReading> batch(a.batch_size);
  for (std::size_t b = 0; b < a.batches; ++b) {
    for (std::size_t j = 0; j < a.batch_size; ++j) {
      batch[j] = stream_sample(a, ids, g++);
    }
    store.insert_batch(std::span<const IdReading>(batch));
    if ((b + 1) % a.flush_every == 0) {
      if (!wal.flush()) {
        std::fprintf(stderr, "wal degraded mid-run\n");
        return 4;
      }
      if (progress != nullptr) {
        // The ack is written only AFTER flush() returned: every acked
        // sample is durably on disk, so a later recovery must cover it.
        std::fprintf(progress, "flushed %llu\n",
                     static_cast<unsigned long long>(g));
        std::fflush(progress);
      }
    }
    if (a.batch_sleep_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(a.batch_sleep_us));
    }
  }
  store.set_wal(nullptr);
  const bool flushed = wal.flush();
  wal.stop();
  if (progress != nullptr) std::fclose(progress);
  std::printf("ingest done: %llu samples total, flushed=%d\n",
              static_cast<unsigned long long>(g), flushed ? 1 : 0);
  return flushed ? 0 : 4;
}

int run_verify(const Args& a) {
  const std::vector<SeriesId> ids = stream_ids(a);
  Wal wal(WalOptions{.dir = a.dir});
  std::vector<IdReading> recovered;
  const WalRecoveryStats stats = wal.recover(recovered);
  if (!check_prefix(a, ids, recovered)) return 2;

  const std::uint64_t acked = a.progress.empty() ? 0 : last_ack(a.progress);
  if (recovered.size() < acked) {
    std::fprintf(stderr,
                 "durability violation: recovered %zu < acked %llu\n",
                 recovered.size(), static_cast<unsigned long long>(acked));
    return 2;
  }

  // Replay into one store; feed the same prefix to an independently-built
  // reference store through the plain ingest path; require bit equality on
  // every series (the test_store_equiv equivalence surface).
  TimeSeriesStore replayed(1 << 12);
  replayed.insert_batch(std::span<const IdReading>(recovered));
  TimeSeriesStore reference(1 << 12);
  for (const IdReading& r : recovered) reference.insert(r.id, r.sample);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::string& path = SeriesInterner::global().path(ids[i]);
    const auto got = replayed.query_all(path);
    const auto want = reference.query_all(path);
    if (got.times != want.times || got.size() != want.size()) {
      std::fprintf(stderr, "replay mismatch on %s\n", path.c_str());
      return 2;
    }
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (!bits_equal(got.values[k], want.values[k])) {
        std::fprintf(stderr, "replay value mismatch on %s[%zu]\n",
                     path.c_str(), k);
        return 2;
      }
    }
  }
  std::printf("verified %zu samples (acked %llu, truncated %llu bytes%s)\n",
              recovered.size(), static_cast<unsigned long long>(acked),
              static_cast<unsigned long long>(stats.truncated_bytes),
              stats.tail_truncated ? ", tail truncated" : "");
  return 0;
}

int run_inspect(const Args& a) {
  Wal wal(WalOptions{.dir = a.dir});
  std::vector<IdReading> recovered;
  const WalRecoveryStats stats = wal.recover(recovered);
  std::printf("segments=%llu records=%llu samples=%llu truncated_bytes=%llu "
              "truncated_segments=%llu tail_truncated=%d reason=%s\n",
              static_cast<unsigned long long>(stats.segments_scanned),
              static_cast<unsigned long long>(stats.records_replayed),
              static_cast<unsigned long long>(stats.samples_replayed),
              static_cast<unsigned long long>(stats.truncated_bytes),
              static_cast<unsigned long long>(stats.truncated_segments),
              stats.tail_truncated ? 1 : 0, stats.truncate_reason.c_str());
  return stats.tail_truncated ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: wal_ingest <ingest|verify|inspect> <dir> "
                         "[--seed S] [--paths P] [--batches N] "
                         "[--batch-size B] [--batch-sleep-us U] "
                         "[--flush-every F] [--progress FILE]\n");
    return 64;
  }
  Args a;
  a.mode = argv[1];
  a.dir = argv[2];
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--paths") {
      a.paths = std::strtoull(val, nullptr, 10);
    } else if (flag == "--batches") {
      a.batches = std::strtoull(val, nullptr, 10);
    } else if (flag == "--batch-size") {
      a.batch_size = std::strtoull(val, nullptr, 10);
    } else if (flag == "--batch-sleep-us") {
      a.batch_sleep_us = std::strtol(val, nullptr, 10);
    } else if (flag == "--flush-every") {
      a.flush_every = std::strtoull(val, nullptr, 10);
    } else if (flag == "--progress") {
      a.progress = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 64;
    }
  }
  if (a.paths == 0 || a.batch_size == 0 || a.flush_every == 0) {
    std::fprintf(stderr, "paths/batch-size/flush-every must be positive\n");
    return 64;
  }
  if (a.mode == "ingest") return run_ingest(a);
  if (a.mode == "verify") return run_verify(a);
  if (a.mode == "inspect") return run_inspect(a);
  std::fprintf(stderr, "unknown mode %s\n", a.mode.c_str());
  return 64;
}
