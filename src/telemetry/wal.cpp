#include "telemetry/wal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "telemetry/store.hpp"

namespace oda::telemetry {

// ------------------------------------------------------------------- crc32c

namespace {

struct Crc32cTable {
  std::uint32_t entries[256];
  Crc32cTable() {
    // Castagnoli polynomial, reflected.
    constexpr std::uint32_t kPoly = 0x82F63B78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      entries[i] = c;
    }
  }
};

const Crc32cTable& crc_table() {
  static Crc32cTable table;
  return table;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t n,
                     std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const Crc32cTable& t = crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = t.entries[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// -------------------------------------------------------------------- codec

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t get_u32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(u[0]) |
         (static_cast<std::uint32_t>(u[1]) << 8) |
         (static_cast<std::uint32_t>(u[2]) << 16) |
         (static_cast<std::uint32_t>(u[3]) << 24);
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Bounds-checked LEB128 decode; false on overrun or >10-byte varint.
bool get_varint(const char* p, std::size_t n, std::size_t& pos,
                std::uint64_t& out) {
  std::uint64_t v = 0;
  int shift = 0;
  while (pos < n && shift < 64) {
    const auto byte = static_cast<unsigned char>(p[pos++]);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

std::uint64_t zigzag_encode(std::uint64_t delta) {
  // Interpret the wrapping uint64 delta as signed and fold the sign bit
  // down, so small forward and backward steps both encode in one byte.
  return (delta << 1) ^
         (0u - (delta >> 63));
}

std::uint64_t zigzag_decode(std::uint64_t v) {
  return (v >> 1) ^ (0u - (v & 1u));
}

/// Record header + payload appended to `out`: the crc covers header bytes
/// [0, 8) (len/type/pad, with the crc field excluded) plus the payload.
void put_record(std::string& out, std::uint8_t type,
                const std::string& payload) {
  const std::size_t header_at = out.size();
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.push_back(static_cast<char>(type));
  out.push_back('\0');
  out.push_back('\0');
  out.push_back('\0');
  std::uint32_t crc = crc32c(out.data() + header_at, 8);
  crc = crc32c(payload.data(), payload.size(), crc);
  put_u32(out, crc);
  out.append(payload);
}

struct WalMetrics {
  obs::Counter& appended;
  obs::Counter& committed;
  obs::Counter& commits;
  obs::Counter& bytes_written;
  obs::Counter& segments;
  obs::Counter& lost;
  obs::Counter& replayed;
  obs::Counter& truncated_bytes;
  obs::Gauge& degraded;
  obs::Gauge& queue_depth;
  obs::Histogram& commit_seconds;

  static WalMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static WalMetrics m{
        reg.counter("oda_wal_appended_samples_total",
                    "Samples offered to the WAL (accepted or refused)"),
        reg.counter("oda_wal_committed_samples_total",
                    "Samples durably written (and fsynced) to WAL segments"),
        reg.counter("oda_wal_commits_total", "Group commits written"),
        reg.counter("oda_wal_bytes_written_total",
                    "Bytes appended to WAL segments"),
        reg.counter("oda_wal_segments_created_total",
                    "WAL segment files opened (rotation included)"),
        reg.counter("oda_wal_lost_samples_total",
                    "Samples not durably logged (degraded mode or failed "
                    "commits); exact, mirrors collector gap accounting"),
        reg.counter("oda_wal_replayed_samples_total",
                    "Samples replayed from WAL segments at recovery"),
        reg.counter("oda_wal_truncated_bytes_total",
                    "Bytes discarded at recovery from the first invalid "
                    "record onward"),
        reg.gauge("oda_wal_degraded",
                  "1 once the WAL fell back to in-memory-only mode after a "
                  "storage fault (ENOSPC, torn write, fsync failure)"),
        reg.gauge("oda_wal_queue_depth", "Batches waiting for group commit"),
        reg.histogram("oda_wal_commit_seconds",
                      "Group-commit latency (encode + write + fsync)"),
    };
    return m;
  }
};

}  // namespace

// ---------------------------------------------------------------- PosixWalFs

bool PosixWalFs::mkdirs(const std::string& dir) {
  std::string partial;
  partial.reserve(dir.size());
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      partial.push_back(dir[i]);
      continue;
    }
    if (i < dir.size()) partial.push_back('/');
    if (partial.empty() || partial == "/") continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

std::vector<std::string> PosixWalFs::list(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  return names;
}

std::int64_t PosixWalFs::file_size(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<std::int64_t>(st.st_size);
}

bool PosixWalFs::read_file(const std::string& path, std::string& out) {
  out.clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  char buf[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (got == 0) break;
    out.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return true;
}

WalFs::AppendResult PosixWalFs::append(const std::string& path,
                                       const void* data, std::size_t n) {
  AppendResult res;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    res.err = errno;
    res.synced = false;
    return res;
  }
  const auto* p = static_cast<const char*>(data);
  while (res.written < n) {
    const ssize_t wrote = ::write(fd, p + res.written, n - res.written);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      res.err = errno;
      break;
    }
    res.written += static_cast<std::size_t>(wrote);
  }
  res.synced = res.err == 0 && ::fsync(fd) == 0;
  ::close(fd);
  return res;
}

bool PosixWalFs::truncate_file(const std::string& path, std::uint64_t size) {
  return ::truncate(path.c_str(), static_cast<off_t>(size)) == 0;
}

bool PosixWalFs::remove_file(const std::string& path) {
  return ::unlink(path.c_str()) == 0;
}

// ------------------------------------------------------------------ FaultFs

void FaultFs::fail_next_append_after(std::size_t bytes) {
  MutexLock lock(mu_);
  torn_after_ = static_cast<std::int64_t>(bytes);
}

void FaultFs::corrupt_next_append(std::size_t offset, std::uint8_t mask) {
  MutexLock lock(mu_);
  corrupt_offset_ = static_cast<std::int64_t>(offset);
  corrupt_mask_ = mask;
}

void FaultFs::set_space_budget(std::int64_t bytes) {
  MutexLock lock(mu_);
  space_budget_ = bytes;
}

void FaultFs::fail_fsync(int count) {
  MutexLock lock(mu_);
  fsync_failures_ = count;
}

void FaultFs::set_short_read(std::int64_t bytes) {
  MutexLock lock(mu_);
  short_read_ = bytes;
}

void FaultFs::fail_truncate(int count) {
  MutexLock lock(mu_);
  truncate_failures_ = count;
}

std::uint64_t FaultFs::appends_failed() const {
  MutexLock lock(mu_);
  return appends_failed_;
}

std::uint64_t FaultFs::fsyncs_failed() const {
  MutexLock lock(mu_);
  return fsyncs_failed_;
}

bool FaultFs::mkdirs(const std::string& dir) { return base_.mkdirs(dir); }

std::vector<std::string> FaultFs::list(const std::string& dir) {
  return base_.list(dir);
}

std::int64_t FaultFs::file_size(const std::string& path) {
  return base_.file_size(path);
}

bool FaultFs::read_file(const std::string& path, std::string& out) {
  if (!base_.read_file(path, out)) return false;
  MutexLock lock(mu_);
  if (short_read_ >= 0 &&
      out.size() > static_cast<std::size_t>(short_read_)) {
    out.resize(static_cast<std::size_t>(short_read_));
  }
  return true;
}

WalFs::AppendResult FaultFs::append(const std::string& path, const void* data,
                                    std::size_t n) {
  std::string mutated;
  std::size_t effective = n;
  int forced_err = 0;
  bool report_sync_fail = false;
  {
    MutexLock lock(mu_);
    if (corrupt_offset_ >= 0) {
      mutated.assign(static_cast<const char*>(data), n);
      if (static_cast<std::size_t>(corrupt_offset_) < n) {
        mutated[static_cast<std::size_t>(corrupt_offset_)] =
            static_cast<char>(mutated[static_cast<std::size_t>(
                                  corrupt_offset_)] ^
                              corrupt_mask_);
      }
      corrupt_offset_ = -1;
    }
    if (torn_after_ >= 0) {
      if (static_cast<std::size_t>(torn_after_) < effective) {
        effective = static_cast<std::size_t>(torn_after_);
        forced_err = EIO;
      }
      torn_after_ = -1;
    }
    if (space_budget_ >= 0) {
      if (static_cast<std::size_t>(space_budget_) < effective) {
        effective = static_cast<std::size_t>(space_budget_);
        forced_err = ENOSPC;
      }
      space_budget_ -= static_cast<std::int64_t>(effective);
    }
    if (fsync_failures_ > 0) {
      --fsync_failures_;
      ++fsyncs_failed_;
      report_sync_fail = true;
    }
    if (forced_err != 0) ++appends_failed_;
  }
  const void* src = mutated.empty() ? data : mutated.data();
  AppendResult res = base_.append(path, src, effective);
  if (forced_err != 0 && res.err == 0) res.err = forced_err;
  if (report_sync_fail) res.synced = false;
  return res;
}

bool FaultFs::truncate_file(const std::string& path, std::uint64_t size) {
  {
    MutexLock lock(mu_);
    if (truncate_failures_ > 0) {
      --truncate_failures_;
      return false;
    }
  }
  return base_.truncate_file(path, size);
}

bool FaultFs::remove_file(const std::string& path) {
  return base_.remove_file(path);
}

// ---------------------------------------------------------------------- Wal

namespace {

PosixWalFs& default_fs() {
  static PosixWalFs fs;
  return fs;
}

}  // namespace

Wal::Wal(WalOptions opts, WalFs* fs)
    : opts_(std::move(opts)), fs_(fs != nullptr ? fs : &default_fs()) {
  ODA_REQUIRE(!opts_.dir.empty(), "WalOptions.dir must be set");
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
}

Wal::~Wal() { stop(); }

std::string Wal::segment_path(std::uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llx.log",
                static_cast<unsigned long long>(seq));
  return opts_.dir + "/" + name;
}

WalRecoveryStats Wal::recover(std::vector<IdReading>& out) {
  ODA_REQUIRE(!writer_.joinable(), "Wal::recover after start()");
  recovered_ = true;
  WalRecoveryStats stats;
  // Collect segments as (seq, filename), ordered by sequence number.
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  for (const std::string& name : fs_->list(opts_.dir)) {
    if (name.size() < 9 || name.compare(0, 4, "wal-") != 0 ||
        name.compare(name.size() - 4, 4, ".log") != 0) {
      continue;
    }
    const std::string hex = name.substr(4, name.size() - 8);
    std::uint64_t seq = 0;
    bool valid = !hex.empty();
    for (char c : hex) {
      const bool digit = (c >= '0' && c <= '9');
      const bool lower = (c >= 'a' && c <= 'f');
      if (!digit && !lower) {
        valid = false;
        break;
      }
      seq = (seq << 4) |
            static_cast<std::uint64_t>(digit ? c - '0' : c - 'a' + 10);
    }
    if (valid) segments.emplace_back(seq, opts_.dir + "/" + name);
  }
  std::sort(segments.begin(), segments.end());

  std::vector<SeriesId> wal_sid;  // wal_id -> process SeriesId
  std::uint64_t running_time = 0;  // uint64-wrapped TimePoint delta base
  bool stopped = false;

  for (const auto& [seq, path] : segments) {
    if (stopped) {
      // Everything after the first invalid record is discarded — a later
      // segment cannot be trusted once the stream's prefix broke.
      const std::int64_t sz = fs_->file_size(path);
      if (sz > 0) stats.truncated_bytes += static_cast<std::uint64_t>(sz);
      ++stats.truncated_segments;
      if (!fs_->remove_file(path)) {
        ODA_LOG_WARN << "wal: failed to remove invalid segment " << path;
      }
      continue;
    }
    ++stats.segments_scanned;
    std::string data;
    const char* reason = nullptr;
    std::size_t offset = 0;
    if (!fs_->read_file(path, data)) {
      reason = "io_error";
    } else if (data.size() < walfmt::kMagicBytes ||
               std::memcmp(data.data(), walfmt::kMagic,
                           walfmt::kMagicBytes) != 0) {
      reason = "bad_magic";
    } else {
      offset = walfmt::kMagicBytes;
      while (offset < data.size()) {
        if (data.size() - offset < walfmt::kRecordHeaderBytes) {
          reason = "short_record";
          break;
        }
        const std::uint32_t len = get_u32(data.data() + offset);
        const auto type = static_cast<std::uint8_t>(data[offset + 4]);
        const std::uint32_t stored_crc = get_u32(data.data() + offset + 8);
        if (len > walfmt::kMaxRecordPayload ||
            (type != walfmt::kRecordIntern && type != walfmt::kRecordBatch)) {
          reason = "bad_header";
          break;
        }
        if (data.size() - offset - walfmt::kRecordHeaderBytes < len) {
          reason = "short_record";
          break;
        }
        const char* payload = data.data() + offset + walfmt::kRecordHeaderBytes;
        std::uint32_t crc = crc32c(data.data() + offset, 8);
        crc = crc32c(payload, len, crc);
        if (crc != stored_crc) {
          reason = "crc_mismatch";
          break;
        }
        // Record-atomic decode: roll back `out` and the delta base on any
        // mid-record failure so a bad record never half-applies.
        const std::size_t out_before = out.size();
        const std::uint64_t time_before = running_time;
        if (type == walfmt::kRecordIntern) {
          if (len < 8) {
            reason = "decode_error";
            break;
          }
          const std::uint32_t wal_id = get_u32(payload);
          const std::uint32_t path_len = get_u32(payload + 4);
          if (path_len != len - 8 || wal_id != wal_sid.size()) {
            reason = "decode_error";
            break;
          }
          wal_sid.push_back(
              SeriesInterner::global().intern(std::string(payload + 8,
                                                          path_len)));
        } else {
          if (len < 4) {
            reason = "decode_error";
            break;
          }
          const std::uint32_t count = get_u32(payload);
          std::size_t pos = 4;
          const char* batch_reason = nullptr;
          for (std::uint32_t i = 0; i < count; ++i) {
            std::uint64_t wal_id = 0;
            std::uint64_t zz = 0;
            if (!get_varint(payload, len, pos, wal_id) ||
                !get_varint(payload, len, pos, zz) || len - pos < 8) {
              batch_reason = "decode_error";
              break;
            }
            if (wal_id >= wal_sid.size()) {
              batch_reason = "unknown_series";
              break;
            }
            running_time += zigzag_decode(zz);
            double value = 0.0;
            std::memcpy(&value, payload + pos, 8);
            pos += 8;
            out.push_back(IdReading{wal_sid[wal_id],
                                    Sample{static_cast<TimePoint>(running_time),
                                           value}});
          }
          if (batch_reason == nullptr && pos != len) {
            batch_reason = "decode_error";
          }
          if (batch_reason != nullptr) {
            out.resize(out_before);
            running_time = time_before;
            reason = batch_reason;
            break;
          }
          stats.samples_replayed += count;
        }
        ++stats.records_replayed;
        offset += walfmt::kRecordHeaderBytes + len;
      }
    }
    if (reason != nullptr) {
      stats.tail_truncated = true;
      stats.truncate_reason = reason;
      const std::int64_t on_disk = fs_->file_size(path);
      const std::uint64_t total =
          on_disk >= 0 ? static_cast<std::uint64_t>(on_disk) : data.size();
      if (total > offset) stats.truncated_bytes += total - offset;
      if (offset <= walfmt::kMagicBytes) {
        // Nothing valid in this segment: drop the whole file.
        if (!fs_->remove_file(path)) {
          ODA_LOG_WARN << "wal: failed to remove invalid segment " << path;
        }
      } else if (!fs_->truncate_file(path, offset)) {
        ODA_LOG_WARN << "wal: failed to truncate " << path << " at "
                     << offset;
      }
      ODA_LOG_WARN << "wal: recovery truncated " << path << " at byte "
                   << offset << " (" << reason << ")";
      stopped = true;
    }
  }

  // Prime the writer so a subsequent start() continues this WAL: same
  // wal-id space, same delta base, a fresh segment after the last one seen
  // (recovered segments are never appended to again).
  next_wal_id_ = static_cast<std::uint32_t>(wal_sid.size());
  for (std::uint32_t wal_id = 0; wal_id < wal_sid.size(); ++wal_id) {
    const std::uint32_t sid = wal_sid[wal_id].value;
    if (sid >= wal_id_of_.size()) wal_id_of_.resize(sid + 1, 0);
    wal_id_of_[sid] = wal_id + 1;
  }
  last_time_ = static_cast<TimePoint>(running_time);
  segment_seq_ = segments.empty() ? 0 : segments.back().first + 1;
  segment_bytes_ = 0;

  WalMetrics& m = WalMetrics::get();
  m.replayed.inc(stats.samples_replayed);
  m.truncated_bytes.inc(stats.truncated_bytes);
  return stats;
}

WalRecoveryStats Wal::recover_into(TimeSeriesStore& store) {
  ODA_REQUIRE(store.wal() != this,
              "Wal::recover_into a store this Wal is attached to");
  std::vector<IdReading> readings;
  WalRecoveryStats stats = recover(readings);
  if (!readings.empty()) {
    store.insert_batch(std::span<const IdReading>(readings));
  }
  return stats;
}

bool Wal::start() {
  if (!recovered_) {
    std::vector<IdReading> discard;
    recover(discard);
  }
  {
    MutexLock lock(mu_);
    if (started_) return true;
  }
  if (!fs_->mkdirs(opts_.dir)) {
    enter_degraded("mkdir", errno);
    return false;
  }
  {
    MutexLock lock(mu_);
    stopping_ = false;
    started_ = true;
  }
  writer_ = std::thread([this] { writer_loop(); });
  return true;
}

void Wal::stop() {
  {
    MutexLock lock(mu_);
    if (!started_) return;
    stopping_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }
  if (writer_.joinable()) writer_.join();
  MutexLock lock(mu_);
  started_ = false;
}

bool Wal::append(std::span<const IdReading> readings) {
  if (readings.empty()) return !degraded();
  WalMetrics& m = WalMetrics::get();
  m.appended.inc(readings.size());
  accepted_samples_.fetch_add(readings.size(), std::memory_order_relaxed);
  if (degraded()) {
    lost_samples_.fetch_add(readings.size(), std::memory_order_relaxed);
    m.lost.inc(readings.size());
    return false;
  }
  {
    MutexLock lock(mu_);
    while (started_ && !stopping_ && !degraded() &&
           pending_.size() >= opts_.queue_capacity) {
      not_full_.wait(mu_);
    }
    if (started_ && !stopping_ && !degraded()) {
      PendingBatch batch;
      batch.seq = ++appended_seq_;
      batch.readings.assign(readings.begin(), readings.end());
      pending_.push_back(std::move(batch));
      m.queue_depth.set(static_cast<double>(pending_.size()));
      not_empty_.notify_one();
      return true;
    }
  }
  lost_samples_.fetch_add(readings.size(), std::memory_order_relaxed);
  m.lost.inc(readings.size());
  return false;
}

bool Wal::flush() {
  MutexLock lock(mu_);
  if (committed_seq_ >= appended_seq_) return !degraded();
  if (!started_) return false;
  // Every group commit fsyncs, so the last batch appended so far committing
  // means everything before it is written and durable.
  const std::uint64_t target = appended_seq_;
  while (committed_seq_ < target && !degraded()) {
    committed_cv_.wait(mu_);
  }
  return !degraded();
}

void Wal::writer_loop() {
  std::vector<PendingBatch> group;
  for (;;) {
    group.clear();
    {
      MutexLock lock(mu_);
      while (pending_.empty() && !stopping_) {
        not_empty_.wait(mu_);
      }
      if (pending_.empty()) return;  // stopping and fully drained
      group.assign(std::make_move_iterator(pending_.begin()),
                   std::make_move_iterator(pending_.end()));
      pending_.clear();
      WalMetrics::get().queue_depth.set(0.0);
      not_full_.notify_all();
    }
    const std::uint64_t last_seq = group.back().seq;
    std::size_t nsamples = 0;
    for (const PendingBatch& b : group) nsamples += b.readings.size();
    bool ok;
    if (degraded()) {
      ok = false;
    } else {
      ok = commit_group(group);
    }
    if (!ok && nsamples > 0) {
      lost_samples_.fetch_add(nsamples, std::memory_order_relaxed);
      WalMetrics::get().lost.inc(nsamples);
    }
    {
      MutexLock lock(mu_);
      committed_seq_ = std::max(committed_seq_, last_seq);
      committed_cv_.notify_all();
      // A degradation mid-commit may strand producers in the not-full
      // wait; wake them so they count their batches lost and move on.
      if (degraded()) not_full_.notify_all();
    }
  }
}

bool Wal::commit_group(std::vector<PendingBatch>& group) {
  encode_buf_.clear();
  std::string payload;
  std::size_t nsamples = 0;
  for (const PendingBatch& batch : group) {
    // Intern records for series this WAL has never written, before the
    // batch record that references them.
    for (const IdReading& r : batch.readings) {
      const std::uint32_t sid = r.id.value;
      if (sid >= wal_id_of_.size()) wal_id_of_.resize(sid + 1, 0);
      if (wal_id_of_[sid] != 0) continue;
      const std::uint32_t wal_id = next_wal_id_++;
      wal_id_of_[sid] = wal_id + 1;
      const std::string& path = SeriesInterner::global().path(r.id);
      payload.clear();
      put_u32(payload, wal_id);
      put_u32(payload, static_cast<std::uint32_t>(path.size()));
      payload.append(path);
      put_record(encode_buf_, walfmt::kRecordIntern, payload);
    }
    payload.clear();
    put_u32(payload, static_cast<std::uint32_t>(batch.readings.size()));
    for (const IdReading& r : batch.readings) {
      put_varint(payload, wal_id_of_[r.id.value] - 1);
      const std::uint64_t now = static_cast<std::uint64_t>(r.sample.time);
      const std::uint64_t delta =
          now - static_cast<std::uint64_t>(last_time_);
      put_varint(payload, zigzag_encode(delta));
      last_time_ = r.sample.time;
      char raw[8];
      std::memcpy(raw, &r.sample.value, 8);
      payload.append(raw, 8);
    }
    put_record(encode_buf_, walfmt::kRecordBatch, payload);
    nsamples += batch.readings.size();
  }
  WalMetrics& m = WalMetrics::get();
  if (segment_bytes_ >= opts_.segment_max_bytes) {
    ++segment_seq_;
    segment_bytes_ = 0;
  }
  const bool fresh_segment = segment_bytes_ == 0;
  if (fresh_segment) {
    encode_buf_.insert(0, walfmt::kMagic, walfmt::kMagicBytes);
  }
  const std::string path = segment_path(segment_seq_);
  const std::uint64_t offset_before = segment_bytes_;
  const auto commit_start = std::chrono::steady_clock::now();
  const WalFs::AppendResult res =
      fs_->append(path, encode_buf_.data(), encode_buf_.size());
  m.commit_seconds.observe(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - commit_start)
                               .count());
  if (res.written < encode_buf_.size() || res.err != 0) {
    // Roll the torn tail back so the surviving prefix stays clean; if the
    // truncate fails too, recovery's first-invalid-record rule covers it.
    if (res.written > 0 && !fs_->truncate_file(path, offset_before)) {
      ODA_LOG_WARN << "wal: could not roll back torn commit in " << path;
    }
    enter_degraded("append", res.err);
    return false;
  }
  if (!res.synced) {
    enter_degraded("fsync", res.err);
    return false;
  }
  if (fresh_segment) m.segments.inc();
  segment_bytes_ += encode_buf_.size();
  committed_samples_.fetch_add(nsamples, std::memory_order_relaxed);
  m.committed.inc(nsamples);
  m.commits.inc();
  m.bytes_written.inc(encode_buf_.size());
  return true;
}

void Wal::enter_degraded(const char* what, int err) {
  // relaxed: the flag is advisory (producers re-check under mu_); the
  // exchange only dedups the one-time log line and gauge flip.
  if (degraded_.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  WalMetrics::get().degraded.set(1.0);
  ODA_LOG_ERROR << "wal: storage fault (" << what
                << (err != 0 ? std::string(": ") + std::strerror(err) : "")
                << ") — degrading to in-memory-only mode; ingest continues, "
                   "samples are no longer durable (oda_wal_degraded=1)";
}

}  // namespace oda::telemetry
