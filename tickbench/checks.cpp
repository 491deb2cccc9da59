#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>

#include "common/rng.hpp"
#include "facility.hpp"
#include "telemetry/wal.hpp"

namespace tickbench {

using namespace oda;
using telemetry::Aggregation;
using telemetry::SeriesSlice;
using telemetry::TimeSeriesStore;

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
}

constexpr Aggregation kModes[] = {
    Aggregation::kMean, Aggregation::kMin,   Aggregation::kMax,
    Aggregation::kSum,  Aggregation::kLast,  Aggregation::kCount,
    Aggregation::kStdDev};

/// A copy of `src` over `paths`, with one sample of `victim` replaced by
/// `value` (alter) or left out (drop).
std::unique_ptr<TimeSeriesStore> tampered_copy(const TimeSeriesStore& src,
                                               const std::vector<std::string>& paths,
                                               std::size_t capacity,
                                               const std::string& victim,
                                               bool drop) {
  auto out = std::make_unique<TimeSeriesStore>(capacity);
  for (const auto& path : paths) {
    const SeriesSlice s = src.query_all(path);
    for (std::size_t i = 0; i < s.size(); ++i) {
      const bool hit = path == victim && i + 1 == s.size();
      if (hit && drop) continue;
      const double v = hit ? std::nextafter(s.values[i], 1e300) : s.values[i];
      out->insert(path, telemetry::Sample{s.times[i], v});
    }
  }
  return out;
}

}  // namespace

bool stored_equals_read(const TimeSeriesStore& store, telemetry::SeriesId id,
                        const sim::SensorDef& def, TimePoint now) {
  const auto latest = store.latest(id);
  return latest && latest->time == now &&
         bits_of(latest->value) == bits_of(def.read());
}

std::uint64_t store_digest(const TimeSeriesStore& store,
                           const std::vector<std::string>& paths) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& path : paths) {
    fnv(h, path.data(), path.size());
    const SeriesSlice s = store.query_all(path);
    const std::uint64_t n = s.size();
    fnv(h, &n, sizeof n);
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::uint64_t v = bits_of(s.values[i]);
      fnv(h, &s.times[i], sizeof s.times[i]);
      fnv(h, &v, sizeof v);
    }
  }
  return h;
}

std::uint64_t sample_differences(const TimeSeriesStore& a,
                                 const TimeSeriesStore& b,
                                 const std::vector<std::string>& paths) {
  std::uint64_t diffs = 0;
  for (const auto& path : paths) {
    const SeriesSlice x = a.query_all(path);
    const SeriesSlice y = b.query_all(path);
    const std::size_t n = std::min(x.size(), y.size());
    diffs += std::max(x.size(), y.size()) - n;
    for (std::size_t i = 0; i < n; ++i) {
      if (x.times[i] != y.times[i] ||
          bits_of(x.values[i]) != bits_of(y.values[i])) {
        ++diffs;
      }
    }
  }
  return diffs;
}

std::uint64_t gap_failures(
    const TimeSeriesStore& store,
    const std::vector<std::vector<std::string>>& group_paths,
    const std::vector<const std::vector<TimePoint>*>& due_times,
    const std::set<std::string>& read_faulted, std::size_t capacity) {
  std::uint64_t failures = 0;
  for (std::size_t g = 0; g < group_paths.size(); ++g) {
    const std::vector<TimePoint>& due = *due_times[g];
    const std::size_t keep = std::min(capacity, due.size());
    const std::vector<TimePoint> tail(due.end() - static_cast<std::ptrdiff_t>(keep),
                                      due.end());
    for (const auto& path : group_paths[g]) {
      if (read_faulted.count(path) != 0) continue;
      if (store.query_all(path).times != tail) ++failures;
    }
  }
  return failures;
}

std::uint64_t conservation_failures(const Conservation& c) {
  const auto gap = [](std::uint64_t x, std::uint64_t y) {
    return x > y ? x - y : y - x;
  };
  return gap(c.expected_bench, c.expected_collector) +
         gap(c.expected_collector, c.collected + c.gaps) +
         gap(c.collected, c.inserted) + gap(c.committed, c.inserted) + c.lost +
         gap(c.replayed, c.committed);
}

bool fold_matches(const SeriesSlice& raw, const SeriesSlice& agg,
                  TimePoint from, Duration bucket, Aggregation mode) {
  std::vector<TimePoint> times;
  std::vector<double> values;
  std::size_t i = 0;
  while (i < raw.size()) {
    const TimePoint k = (raw.times[i] - from) / bucket;
    const TimePoint end = from + (k + 1) * bucket;
    double sum = 0.0, lo = raw.values[i], hi = raw.values[i], last = 0.0;
    double mean = 0.0, m2 = 0.0;
    std::size_t count = 0;
    for (; i < raw.size() && raw.times[i] < end; ++i) {
      const double v = raw.values[i];
      sum += v;
      if (v < lo) lo = v;
      if (hi < v) hi = v;
      last = v;
      ++count;
      const double delta = v - mean;
      mean += delta / static_cast<double>(count);
      m2 += delta * (v - mean);
    }
    double r = 0.0;
    switch (mode) {
      case Aggregation::kMean: r = sum / static_cast<double>(count); break;
      case Aggregation::kMin: r = lo; break;
      case Aggregation::kMax: r = hi; break;
      case Aggregation::kSum: r = sum; break;
      case Aggregation::kLast: r = last; break;
      case Aggregation::kCount: r = static_cast<double>(count); break;
      case Aggregation::kStdDev:
        r = count < 2 ? 0.0 : std::sqrt(m2 / static_cast<double>(count - 1));
        break;
    }
    times.push_back(from + k * bucket);
    values.push_back(r);
  }
  if (agg.times != times || agg.values.size() != values.size()) return false;
  for (std::size_t j = 0; j < values.size(); ++j) {
    if (bits_of(agg.values[j]) != bits_of(values[j])) return false;
  }
  return true;
}

std::uint64_t aggregation_failures(const TimeSeriesStore& store,
                                   const std::vector<std::string>& paths,
                                   TimePoint from, TimePoint to,
                                   std::uint64_t seed) {
  Rng rng(seed ^ 0xA66ULL);
  std::uint64_t failures = 0;
  for (int s = 0; s < 12; ++s) {
    const auto& path = paths[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
    const SeriesSlice raw = store.query(path, from, to);
    for (const Duration bucket : {Duration{kMinute}, Duration{7 * kMinute}}) {
      for (const Aggregation mode : kModes) {
        const SeriesSlice agg = store.query_aggregated(path, from, to, bucket, mode);
        if (!fold_matches(raw, agg, from, bucket, mode)) ++failures;
      }
    }
  }
  return failures;
}

bool SelfTestResult::ok() const {
  for (const auto& [name, passed] : clean) {
    if (!passed) return false;
  }
  for (const auto& [name, failed] : tampered) {
    if (!failed) return false;
  }
  return !clean.empty() && !tampered.empty();
}

std::string SelfTestResult::render() const {
  std::string out = "selftest clean:";
  for (const auto& [name, passed] : clean) {
    out += " " + name + (passed ? "=pass" : "=FAIL(should pass)");
  }
  out += " | tampered:";
  for (const auto& [name, failed] : tampered) {
    out += " " + name + (failed ? "=fails" : "=PASSES(should fail)");
  }
  return out;
}

SelfTestResult self_test(ThreadPool& pool, const std::string& dir) {
  namespace fs = std::filesystem;
  WorkloadConfig cfg = make_config(Workload::kIngestSteady, 7);
  cfg.racks = 1;
  cfg.nodes_per_rack = 4;
  cfg.store_capacity = 16;
  cfg.ticks = 40;
  const auto run = [&](const std::string& wal_dir) {
    fs::remove_all(wal_dir);
    auto f = std::make_unique<Facility>(cfg, pool, wal_dir);
    for (std::size_t t = 0; t < cfg.ticks; ++t) f->tick();
    f->close_wal();
    return f;
  };
  const std::string dir_a = dir + "/a";
  const std::string dir_b = dir + "/b";
  auto f = run(dir_a);
  const std::uint64_t other_digest = [&] {
    auto g = run(dir_b);
    std::vector<std::string> p;
    for (const auto& d : g->cluster().sensors()) p.push_back(d.path);
    return store_digest(g->store(), p);
  }();

  std::vector<std::string> paths;
  for (const auto& d : f->cluster().sensors()) paths.push_back(d.path);
  const TimeSeriesStore& store = f->store();
  const TimePoint now = f->cluster().now();
  const std::string victim = "facility/total_power";
  const auto def = std::find_if(f->cluster().sensors().begin(),
                                f->cluster().sensors().end(),
                                [&](const sim::SensorDef& d) { return d.path == victim; });
  const telemetry::SeriesId victim_id =
      telemetry::SeriesInterner::global().intern(victim);

  std::vector<const std::vector<TimePoint>*> due;
  for (std::size_t g = 0; g < f->group_paths().size(); ++g) {
    due.push_back(&f->due_times(g));
  }
  const auto gaps_ok = [&](const TimeSeriesStore& s) {
    return gap_failures(s, f->group_paths(), due, f->read_faulted(),
                        cfg.store_capacity) == 0;
  };
  const auto replay = [&](std::uint64_t& replayed) {
    auto s = std::make_unique<TimeSeriesStore>(cfg.store_capacity);
    telemetry::Wal w(telemetry::WalOptions{.dir = dir_a});
    replayed = w.recover_into(*s).samples_replayed;
    return s;
  };
  Conservation c;
  c.expected_bench = f->expected_samples();
  c.expected_collector = f->collector().samples_expected();
  c.collected = f->collector().samples_collected();
  c.gaps = f->collector().gaps_total();
  c.inserted = store.total_inserted();
  c.committed = f->wal().committed_samples();
  c.lost = f->wal().lost_samples();
  auto replayed_store = replay(c.replayed);

  SelfTestResult r;
  r.clean.emplace_back("check1", stored_equals_read(store, victim_id, *def, now));
  r.clean.emplace_back("gaps", gaps_ok(store));
  r.clean.emplace_back("check2", conservation_failures(c) == 0);
  r.clean.emplace_back("check3", sample_differences(store, *replayed_store, paths) == 0);
  r.clean.emplace_back("check4", aggregation_failures(store, paths, now - kHour + 7,
                                                      now + 1, cfg.seed) == 0);
  r.clean.emplace_back("check5", store_digest(store, paths) == other_digest);

  // One altered sample: the victim's newest value moves by one ulp.
  const auto altered = tampered_copy(store, paths, cfg.store_capacity, victim, false);
  r.tampered.emplace_back("altered:check1",
                          !stored_equals_read(*altered, victim_id, *def, now));
  r.tampered.emplace_back("altered:check3",
                          sample_differences(*altered, *replayed_store, paths) != 0);
  r.tampered.emplace_back("altered:check5",
                          store_digest(*altered, paths) != other_digest);

  // One dropped sample: the victim's newest sample is missing.
  const auto dropped = tampered_copy(store, paths, cfg.store_capacity, victim, true);
  r.tampered.emplace_back("dropped:gaps", !gaps_ok(*dropped));
  r.tampered.emplace_back("dropped:check3",
                          sample_differences(*dropped, *replayed_store, paths) != 0);

  // One altered aggregate.
  {
    const TimePoint from = now - kHour + 7;
    const SeriesSlice raw = store.query(victim, from, now + 1);
    SeriesSlice agg = store.query_aggregated(victim, from, now + 1, kMinute,
                                             Aggregation::kMean);
    if (!agg.values.empty()) agg.values.back() = std::nextafter(agg.values.back(), 1e300);
    r.tampered.emplace_back("altered_aggregate:check4",
                            !fold_matches(raw, agg, from, kMinute, Aggregation::kMean));
  }

  // One truncated WAL: the newest segment loses its last bytes.
  {
    std::string newest;
    for (const auto& e : fs::directory_iterator(dir_a)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("wal-", 0) == 0 && name > fs::path(newest).filename().string()) {
        newest = e.path().string();
      }
    }
    fs::resize_file(newest, fs::file_size(newest) - 5);
    Conservation t = c;
    auto truncated = replay(t.replayed);
    r.tampered.emplace_back("truncated_wal:check2", conservation_failures(t) != 0);
    r.tampered.emplace_back("truncated_wal:check3",
                            sample_differences(store, *truncated, paths) != 0);
  }
  f.reset();
  fs::remove_all(dir);
  return r;
}

}  // namespace tickbench
