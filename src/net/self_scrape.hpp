// Self-scrape: the paper's framework applied reflexively. A SelfScrape
// walks MetricsRegistry::global() and ingests every oda_* series into a
// TimeSeriesStore under kSelfScrapePrefix ("oda/"), through the same
// interned-id insert_batch path facility telemetry takes — so ODA's own
// operational history is queryable through its own analytics (and listed
// live by ObsServer's /selfscrape endpoint, which reads the same prefix).
//
// Series naming: "oda/<family>" for an unlabeled series,
// "oda/<family>{k=v,...}" with registration-sorted labels otherwise;
// histograms ingest their _sum and _count series. scrape_once(now) is the
// one entry point: the caller owns the cadence (self_monitor calls it once
// per simulated step, on simulation time).
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "telemetry/series_id.hpp"

namespace oda::telemetry {
class TimeSeriesStore;
}  // namespace oda::telemetry

namespace oda::net {

/// Path prefix of every self-scraped series.
inline constexpr std::string_view kSelfScrapePrefix = "oda/";

class SelfScrape {
 public:
  explicit SelfScrape(telemetry::TimeSeriesStore& store);
  SelfScrape(const SelfScrape&) = delete;
  SelfScrape& operator=(const SelfScrape&) = delete;

  /// One scrape pass: snapshot the registry, ingest everything at time
  /// `now`. Returns the number of samples ingested. Safe to call from
  /// several threads at once.
  std::size_t scrape_once(TimePoint now);

  std::uint64_t passes() const noexcept {
    // relaxed: statistics counter.
    return passes_.load(std::memory_order_relaxed);
  }
  std::uint64_t samples_ingested() const noexcept {
    // relaxed: statistics counter.
    return samples_.load(std::memory_order_relaxed);
  }

 private:
  telemetry::TimeSeriesStore& store_;

  obs::Counter& passes_counter_;
  obs::Counter& samples_counter_;
  obs::Gauge& series_gauge_;

  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> samples_{0};
};

}  // namespace oda::net
