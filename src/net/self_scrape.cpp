#include "net/self_scrape.hpp"

#include <span>
#include <string>
#include <vector>

#include "telemetry/store.hpp"

namespace oda::net {

namespace {

/// "oda/<family>" or "oda/<family>{k=v,...}" (labels arrive sorted from
/// registration). The store treats paths as opaque strings, so the braces
/// survive round trips and "oda/*" glob-matches every series.
std::string series_path(const std::string& family, const obs::LabelSet& labels,
                        const char* suffix = "") {
  std::string path(kSelfScrapePrefix);
  path += family;
  path += suffix;
  if (labels.empty()) return path;
  path += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) path += ',';
    first = false;
    path += key;
    path += '=';
    path += value;
  }
  path += '}';
  return path;
}

}  // namespace

SelfScrape::SelfScrape(telemetry::TimeSeriesStore& store)
    : store_(store),
      passes_counter_(obs::MetricsRegistry::global().counter(
          "oda_selfscrape_passes_total",
          "Self-scrape passes over the metrics registry")),
      samples_counter_(obs::MetricsRegistry::global().counter(
          "oda_selfscrape_samples_total",
          "Samples ingested into the store by the self-scrape loop")),
      series_gauge_(obs::MetricsRegistry::global().gauge(
          "oda_selfscrape_series",
          "Series ingested by the most recent self-scrape pass")) {}

std::size_t SelfScrape::scrape_once(TimePoint now) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  std::vector<telemetry::IdReading> batch;
  batch.reserve(256);
  telemetry::SeriesInterner& interner = telemetry::SeriesInterner::global();
  // Sequential lock sections (metrics above, interner here, store shards in
  // insert_batch) — never nested, so the lock hierarchy is untouched.
  for (const obs::MetricFamily& family : snapshot.families) {
    for (const obs::SeriesValue& value : family.values) {
      const telemetry::SeriesId id = interner.intern(
          series_path(family.name, value.labels));
      batch.push_back({id, {now, value.value}});
    }
    for (const obs::HistogramValue& hist : family.histograms) {
      const telemetry::SeriesId sum_id = interner.intern(
          series_path(family.name, hist.labels, "_sum"));
      batch.push_back({sum_id, {now, hist.sum}});
      const telemetry::SeriesId count_id = interner.intern(
          series_path(family.name, hist.labels, "_count"));
      batch.push_back(
          {count_id, {now, static_cast<double>(hist.count)}});
    }
  }
  store_.insert_batch(std::span<const telemetry::IdReading>(batch));
  passes_.fetch_add(1, std::memory_order_relaxed);
  samples_.fetch_add(batch.size(), std::memory_order_relaxed);
  passes_counter_.inc();
  samples_counter_.inc(batch.size());
  series_gauge_.set(static_cast<double>(batch.size()));
  return batch.size();
}

}  // namespace oda::net
