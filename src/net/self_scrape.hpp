// Self-scrape: the paper's framework applied reflexively. A SelfScrape
// walks MetricsRegistry::global() and ingests every oda_* series into a
// TimeSeriesStore under `prefix` (default "oda/"), through the same
// interned-id insert_batch path facility telemetry takes — so ODA's own
// operational history is queryable through its own analytics (and listed
// live by ObsServer's /selfscrape endpoint).
//
// Series naming: "<prefix><family>" for an unlabeled series,
// "<prefix><family>{k=v,...}" with registration-sorted labels otherwise;
// histograms ingest their _sum and _count series. scrape_once(now) is the
// deterministic entry point (self_monitor calls it on simulation time);
// start(clock) spawns a periodic background thread for wall-clock use.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "net/reactor.hpp"
#include "obs/metrics.hpp"
#include "telemetry/series_id.hpp"

namespace oda::telemetry {
class TimeSeriesStore;
}  // namespace oda::telemetry

namespace oda::net {

struct SelfScrapeOptions {
  std::string prefix = "oda/";
  double period_s = 1.0;  ///< background-thread cadence for start()
};

class SelfScrape {
 public:
  explicit SelfScrape(telemetry::TimeSeriesStore& store,
                      SelfScrapeOptions opts = {});
  ~SelfScrape();
  SelfScrape(const SelfScrape&) = delete;
  SelfScrape& operator=(const SelfScrape&) = delete;

  /// One scrape pass: snapshot the registry, ingest everything at time
  /// `now`. Returns the number of samples ingested.
  std::size_t scrape_once(TimePoint now);

  /// Spawns the periodic background scraper ("net.self_scrape"); `clock`
  /// supplies the ingest timestamp per pass. False when the scraper is
  /// already running.
  bool start(std::function<TimePoint()> clock);
  void stop();

  std::uint64_t passes() const noexcept {
    // relaxed: statistics counter.
    return passes_.load(std::memory_order_relaxed);
  }
  std::uint64_t samples_ingested() const noexcept {
    // relaxed: statistics counter.
    return samples_.load(std::memory_order_relaxed);
  }

 private:
  void run(std::function<TimePoint()> clock);

  telemetry::TimeSeriesStore& store_;
  SelfScrapeOptions opts_;

  obs::Counter& passes_counter_;
  obs::Counter& samples_counter_;
  obs::Gauge& series_gauge_;

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> samples_{0};
};

}  // namespace oda::net
