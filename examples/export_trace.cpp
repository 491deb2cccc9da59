// Telemetry exporter: run the simulated facility from a config file and
// dump selected sensors as CSV for external plotting/analysis — the
// "facility data processing" endpoint of the descriptive row ([8],[58]).
// With a fourth argument it also records the run with causal tracing on and
// writes the Chrome trace JSON there (validated by scripts/check_trace.py
// in CI), so the same binary exports both the data and the trace of
// producing it.
//
//   ./export_trace [config_file] [sensor_glob] [hours] [trace_json] > trace.csv
//
// Config files use "section.key = value" lines; see
// the key table in sim/config.cpp for every recognized key, e.g.:
//
//   cluster.racks = 2
//   workload.peak_arrival_rate_per_hour = 10
//   weather.mean_temp_c = 22
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/csv.hpp"
#include "obs/trace.hpp"
#include "sim/cluster.hpp"
#include "sim/config.hpp"
#include "telemetry/collector.hpp"

int main(int argc, char** argv) {
  using namespace oda;

  sim::ClusterParams params;
  if (argc > 1 && std::string(argv[1]) != "-") {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open config file: %s\n", argv[1]);
      return 1;
    }
    std::stringstream text;
    text << in.rdbuf();
    try {
      params = sim::cluster_params_from_config(Config::from_text(text.str()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "config error: %s\n", e.what());
      return 1;
    }
  }
  const std::string pattern = argc > 2 ? argv[2] : "facility/*";
  const Duration hours = argc > 3 ? std::atoll(argv[3]) : 24;
  const char* trace_json = argc > 4 ? argv[4] : nullptr;

  obs::Tracer& tracer = obs::Tracer::global();
  if (trace_json != nullptr) {
    tracer.set_capacity(1 << 18);
    tracer.set_enabled(true);
  }

  sim::ClusterSimulation cluster(params);
  telemetry::TimeSeriesStore store(1 << 17);
  telemetry::Collector collector(cluster, &store, nullptr);
  const std::size_t matched = collector.add_group({"export", pattern, kMinute});
  if (matched == 0) {
    std::fprintf(stderr, "no sensors match pattern: %s\n", pattern.c_str());
    return 1;
  }
  std::fprintf(stderr, "exporting %zu sensors over %lld h...\n", matched,
               static_cast<long long>(hours));

  while (cluster.now() < hours * kHour) {
    cluster.step();
    collector.collect();
  }

  const auto paths = store.match(pattern);
  const auto frame = store.frame(paths, 0, cluster.now(), kMinute);
  CsvWriter csv(std::cout);
  std::vector<std::string> header{"time_s"};
  header.insert(header.end(), frame.columns.begin(), frame.columns.end());
  csv.write_row(header);
  for (std::size_t r = 0; r < frame.rows(); ++r) {
    // Skip buckets before the first collection (all-NaN rows).
    bool any = false;
    for (std::size_t c = 0; c < frame.cols(); ++c) {
      any |= !std::isnan(frame.at(r, c));
    }
    if (!any) continue;
    std::vector<double> row{static_cast<double>(frame.times[r])};
    for (std::size_t c = 0; c < frame.cols(); ++c) {
      row.push_back(frame.at(r, c));
    }
    csv.write_row(row);
  }
  std::fprintf(stderr, "wrote %zu rows x %zu columns\n", frame.rows(),
               frame.cols() + 1);

  if (trace_json != nullptr) {
    tracer.set_enabled(false);
    std::ofstream out(trace_json);
    if (!out) {
      std::fprintf(stderr, "cannot open trace output: %s\n", trace_json);
      return 1;
    }
    out << tracer.to_chrome_json();
    std::fprintf(stderr, "wrote %zu trace events to %s\n",
                 tracer.event_count(), trace_json);
  }
  return 0;
}
