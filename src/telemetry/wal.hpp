// Durable write-ahead log under the sharded TimeSeriesStore.
//
// The in-memory store dies with the process (ROADMAP item 2); production ODA
// stacks persist ingest through a durable tier because collector and store
// restarts are routine at facility scale. The Wal gives the write path that
// tier without touching the hot insert path's locking:
//
//  * a compact binary record format — WAL-local series-id interning table,
//    delta-encoded timestamps (zigzag LEB128), raw little-endian doubles for
//    bit-exact replay, a CRC32C over every record, framed segments with
//    size-based rotation (walfmt below documents the exact layout);
//  * a group-commit writer thread fed from insert/insert_batch through a
//    bounded queue: producers block when the queue is full (backpressure,
//    never sample loss), the writer drains everything pending into one
//    write+fsync per commit;
//  * a recovery path that scans segments in sequence order, truncates at the
//    first invalid record, and replays the surviving prefix — per-series
//    insertion order is preserved, so a store rebuilt from the WAL is
//    bit-identical to the pre-crash in-memory state (tests/test_wal.cpp
//    checks this against the test_store_equiv reference model);
//  * graceful degradation: ENOSPC or an fsync failure flips the Wal into
//    in-memory-only mode (oda_wal_degraded gauge, one error log, exact
//    lost-sample accounting mirroring PR 4's gap accounting) instead of
//    blocking ingest.
//
// All file I/O flows through the WalFs seam; FaultFs wraps any WalFs and
// injects torn tail writes, flipped bytes, short reads, ENOSPC, and fsync
// failures deterministically from tests. docs/STORE.md ("Durability & crash
// recovery") and docs/RESILIENCE.md describe the format and the recovery
// truncation rules; docs/OBSERVABILITY.md lists the oda_wal_* families.
//
// Ordering caveat: replay reproduces the order batches entered the queue.
// With a single ingest thread (the collector) that equals insert order and
// replay is an exact prefix of the insert stream; concurrent appenders are
// safe (per-series order within each appender is preserved) but the
// interleaving between appenders is whatever the queue saw.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "telemetry/series_id.hpp"

namespace oda::telemetry {

class TimeSeriesStore;

/// CRC32C (Castagnoli), software table-driven — the per-record checksum.
/// Exposed so tests can forge/verify records without a private header.
std::uint32_t crc32c(const void* data, std::size_t n,
                     std::uint32_t seed = 0) noexcept;

// ------------------------------------------------------------------ format
//
// A segment file (`wal-<seq 8 hex>.log`) is an 8-byte magic header followed
// by length-prefixed records:
//
//   segment  := "ODAWAL01" record*
//   record   := u32 payload_len | u8 type | u8 pad[3] | u32 crc | payload
//   crc      := crc32c(header bytes [0, 8) ++ payload)   (crc field zeroed)
//   intern   := type 1, payload = u32 wal_id | u32 path_len | path bytes
//   batch    := type 2, payload = u32 count, then per reading:
//                 LEB128 varint wal_id
//                 zigzag LEB128 varint timestamp delta (vs previous reading
//                   in the same record; first delta is vs 0)
//                 8 raw little-endian bytes of the IEEE double
//
// All fixed-width integers are little-endian. wal_ids are a WAL-local dense
// id space (0, 1, ...) written through intern records the first time a
// series appears — process SeriesIds are NOT stable across restarts, so
// they never appear on disk. Timestamp deltas are computed in wrapping
// uint64 arithmetic, so the full int64 TimePoint range round-trips.
namespace walfmt {
inline constexpr char kMagic[8] = {'O', 'D', 'A', 'W', 'A', 'L', '0', '1'};
inline constexpr std::size_t kMagicBytes = sizeof(kMagic);
inline constexpr std::size_t kRecordHeaderBytes = 12;
inline constexpr std::uint8_t kRecordIntern = 1;
inline constexpr std::uint8_t kRecordBatch = 2;
/// Upper bound on a record payload accepted by recovery: anything larger is
/// treated as a corrupt header (the writer never produces records this big).
inline constexpr std::uint32_t kMaxRecordPayload = 16u << 20;
}  // namespace walfmt

// -------------------------------------------------------------------- WalFs

/// File-I/O seam for the WAL: everything the writer and recovery touch on
/// disk goes through this interface, so tests can substitute FaultFs.
/// Implementations must be safe for concurrent calls on distinct paths and
/// for the Wal's usage pattern (writer thread appends, recovery reads before
/// the writer starts).
class WalFs {
 public:
  virtual ~WalFs() = default;

  struct AppendResult {
    std::size_t written = 0;  ///< bytes actually appended
    int err = 0;              ///< errno when written < n (0 on success)
    bool synced = true;       ///< false when the fsync failed
  };

  /// Creates `dir` (and parents). False on failure.
  virtual bool mkdirs(const std::string& dir) = 0;
  /// Plain filenames in `dir`, unsorted; empty on error or empty dir.
  virtual std::vector<std::string> list(const std::string& dir) = 0;
  /// Size in bytes, or -1 when the file does not exist.
  virtual std::int64_t file_size(const std::string& path) = 0;
  /// Reads the whole file into `out`. False on open/IO error. A short read
  /// (fewer bytes than file_size) is reported as success with a short
  /// `out` — recovery treats the missing tail as torn.
  virtual bool read_file(const std::string& path, std::string& out) = 0;
  /// Appends `n` bytes (creating the file), then fsyncs.
  virtual AppendResult append(const std::string& path, const void* data,
                              std::size_t n) = 0;
  /// Truncates to `size` bytes. False on failure.
  virtual bool truncate_file(const std::string& path, std::uint64_t size) = 0;
  /// Removes the file. False on failure.
  virtual bool remove_file(const std::string& path) = 0;
};

/// POSIX implementation (open/write/fsync/close per append batch — one
/// round per group commit, not per sample).
class PosixWalFs final : public WalFs {
 public:
  bool mkdirs(const std::string& dir) override;
  std::vector<std::string> list(const std::string& dir) override;
  std::int64_t file_size(const std::string& path) override;
  bool read_file(const std::string& path, std::string& out) override;
  AppendResult append(const std::string& path, const void* data,
                      std::size_t n) override;
  bool truncate_file(const std::string& path, std::uint64_t size) override;
  bool remove_file(const std::string& path) override;
};

/// Deterministic storage-fault injector wrapping any WalFs. Each knob is
/// armed from the test thread and consumed by the next matching operation;
/// counters report what actually fired. Thread-safe (one leaf mutex).
class FaultFs final : public WalFs {
 public:
  explicit FaultFs(WalFs& base) : base_(base) {}

  /// Next append writes only the first `bytes` of its buffer, then fails
  /// with EIO — a torn tail the caller believes failed.
  void fail_next_append_after(std::size_t bytes);
  /// XORs `mask` into byte `offset` of the next append's buffer (the write
  /// itself succeeds — silent media corruption).
  void corrupt_next_append(std::size_t offset, std::uint8_t mask);
  /// Byte budget across all future appends; once spent, appends write the
  /// remaining budget and fail with ENOSPC. Negative disables.
  void set_space_budget(std::int64_t bytes);
  /// The next `count` syncs fail (append reports synced=false).
  void fail_fsync(int count);
  /// read_file returns at most `bytes` of every file. Negative disables.
  void set_short_read(std::int64_t bytes);
  /// The next `count` truncate_file calls fail.
  void fail_truncate(int count);

  std::uint64_t appends_failed() const;
  std::uint64_t fsyncs_failed() const;

  bool mkdirs(const std::string& dir) override;
  std::vector<std::string> list(const std::string& dir) override;
  std::int64_t file_size(const std::string& path) override;
  bool read_file(const std::string& path, std::string& out) override;
  AppendResult append(const std::string& path, const void* data,
                      std::size_t n) override;
  bool truncate_file(const std::string& path, std::uint64_t size) override;
  bool remove_file(const std::string& path) override;

 private:
  WalFs& base_;
  /// Leaf lock guarding the knobs; never held across base_ calls that could
  /// themselves take locks (PosixWalFs takes none).
  mutable Mutex mu_;
  std::int64_t torn_after_ ODA_GUARDED_BY(mu_) = -1;
  std::int64_t corrupt_offset_ ODA_GUARDED_BY(mu_) = -1;
  std::uint8_t corrupt_mask_ ODA_GUARDED_BY(mu_) = 0;
  std::int64_t space_budget_ ODA_GUARDED_BY(mu_) = -1;
  int fsync_failures_ ODA_GUARDED_BY(mu_) = 0;
  std::int64_t short_read_ ODA_GUARDED_BY(mu_) = -1;
  int truncate_failures_ ODA_GUARDED_BY(mu_) = 0;
  std::uint64_t appends_failed_ ODA_GUARDED_BY(mu_) = 0;
  std::uint64_t fsyncs_failed_ ODA_GUARDED_BY(mu_) = 0;
};

// ---------------------------------------------------------------------- Wal

struct WalOptions {
  std::string dir;                            ///< segment directory
  std::size_t segment_max_bytes = 4u << 20;   ///< rotate past this size
  std::size_t queue_capacity = 64;            ///< pending batches before
                                              ///< producers block
};

/// What recovery found (and gave up on). `truncated_bytes` counts every
/// byte discarded at and after the first invalid record, including whole
/// later segments — the exact-accounting mirror of the collector's gap
/// bookkeeping: recovered + truncated == bytes ever written.
struct WalRecoveryStats {
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t samples_replayed = 0;
  std::uint64_t truncated_bytes = 0;
  std::uint64_t truncated_segments = 0;  ///< whole segments discarded
  bool tail_truncated = false;
  std::string truncate_reason;  ///< "", "bad_magic", "short_record",
                                ///< "crc_mismatch", "bad_header",
                                ///< "unknown_series", "decode_error",
                                ///< "io_error"
};

/// The write-ahead log. Lifecycle:
///
///   Wal wal(opts);                       // or Wal(opts, &fault_fs)
///   wal.recover_into(store);             // replay BEFORE attaching
///   store.set_wal(&wal);
///   wal.start();                         // spawn the group-commit writer
///   ... ingest; wal.flush() to ack durability ...
///   store.set_wal(nullptr); wal.stop();  // orderly shutdown: drains+fsyncs
///
/// Attach to the store only after recovery: recover_into() inserts through
/// the normal store API, and a store with the Wal already attached would
/// re-log its own replay.
class Wal {
 public:
  /// `fs` must outlive the Wal; nullptr selects a process-wide PosixWalFs.
  explicit Wal(WalOptions opts, WalFs* fs = nullptr);
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Scans every segment in sequence order, appends the decoded readings to
  /// `out` in their original append order, truncates the on-disk tail at
  /// the first invalid record, and primes the writer's interning state so a
  /// subsequent start() continues the same WAL. Call once, before start().
  WalRecoveryStats recover(std::vector<IdReading>& out);
  /// recover() + insert_batch into `store` (which must not have this Wal
  /// attached yet).
  WalRecoveryStats recover_into(TimeSeriesStore& store);

  /// Spawns the writer thread. Returns false (and the Wal stays degraded)
  /// when the directory cannot be created. Implies recover() into the void
  /// if the caller skipped it, so intern continuity always holds.
  bool start();
  /// Drains the queue, commits, fsyncs, and joins the writer. Idempotent.
  void stop();

  /// Copies `readings` into the commit queue. Blocks while the queue is at
  /// capacity (bounded-memory backpressure). Returns false — counting every
  /// sample lost — when degraded or stopped.
  bool append(std::span<const IdReading> readings);
  /// Blocks until everything append()ed before this call is written and
  /// fsynced. False when that cannot be guaranteed (degraded/stopped).
  bool flush();

  /// True once a storage fault flipped the Wal to in-memory-only mode.
  bool degraded() const noexcept {
    // relaxed: advisory flag; producers seeing it late just enqueue one
    // more batch that the writer counts as lost.
    return degraded_.load(std::memory_order_relaxed);
  }

  // Conservation counters: accepted counts every sample offered to
  // append() (queued or refused); accepted == committed + lost once stop()
  // or a successful flush() returns (in-flight samples are transient).
  std::uint64_t accepted_samples() const noexcept {
    return accepted_samples_.load(std::memory_order_relaxed);
  }
  std::uint64_t committed_samples() const noexcept {
    return committed_samples_.load(std::memory_order_relaxed);
  }
  std::uint64_t lost_samples() const noexcept {
    return lost_samples_.load(std::memory_order_relaxed);
  }

  const WalOptions& options() const noexcept { return opts_; }

 private:
  struct PendingBatch {
    std::uint64_t seq = 0;
    std::vector<IdReading> readings;
  };

  std::string segment_path(std::uint64_t seq) const;
  void writer_loop();
  /// Encodes + writes one drained group; returns false on storage failure
  /// (caller enters degraded mode). Writer thread only.
  bool commit_group(std::vector<PendingBatch>& group);
  void enter_degraded(const char* what, int err);

  WalOptions opts_;
  WalFs* fs_;  // never null after construction

  // Writer-thread-only encode state (no lock: touched by recover() before
  // the thread exists, then exclusively by writer_loop()).
  std::vector<std::uint32_t> wal_id_of_;  // SeriesId.value -> wal_id + 1
  std::uint32_t next_wal_id_ = 0;
  std::uint64_t segment_seq_ = 0;
  std::uint64_t segment_bytes_ = 0;
  TimePoint last_time_ = 0;  // delta base continues across records
  std::string encode_buf_;

  /// WAL queue/commit lock: ranked between the store shards and the
  /// interner. Nothing in the store holds a shard lock while appending, but
  /// the rank pins the tier for contention attribution and keeps the edge
  /// to the interner (replay interns while the Wal is quiescent) explicit.
  Mutex mu_ ODA_ACQUIRED_AFTER(lock_order::wal)
      ODA_ACQUIRED_BEFORE(lock_order::interner){LockRankId::kWal};
  CondVar not_empty_;
  CondVar not_full_;
  CondVar committed_cv_;
  std::deque<PendingBatch> pending_ ODA_GUARDED_BY(mu_);
  std::uint64_t appended_seq_ ODA_GUARDED_BY(mu_) = 0;
  std::uint64_t committed_seq_ ODA_GUARDED_BY(mu_) = 0;
  bool stopping_ ODA_GUARDED_BY(mu_) = false;
  bool started_ ODA_GUARDED_BY(mu_) = false;

  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> accepted_samples_{0};
  std::atomic<std::uint64_t> committed_samples_{0};
  std::atomic<std::uint64_t> lost_samples_{0};

  bool recovered_ = false;  // recover() ran (main thread, pre-start)
  std::thread writer_;
};

}  // namespace oda::telemetry
