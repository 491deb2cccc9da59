// Shared bench-output helper: every bench accepts `--json <path>` and emits
// a machine-readable result file next to its human-readable stdout artifact.
//
//   * Plain artifact benches construct a BenchReport, add() named metrics,
//     and the destructor writes {"bench", "wall_seconds", "metrics": [...]}
//     when --json was passed (and nothing otherwise).
//   * google-benchmark benches use ODA_BENCH_MAIN(), which translates
//     `--json <path>` into --benchmark_out=<path>/--benchmark_out_format=json
//     so the flag is uniform across the suite, and additionally peels off:
//       --quick            run every case briefly (CI smoke pace)
//       --profile-out <p>  sample the whole run, write folded stacks to <p>
//       --trace-out <p>    enable the tracer, write Chrome trace JSON to <p>
//
// scripts/check_bench.py gates a BenchReport file's metrics in CI;
// scripts/profile_smoke.py drives the --quick/--profile-out/--trace-out
// combination to gate profiler overhead in CI.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace oda::bench {

/// Returns the value following `--json` in argv, or "" when absent.
inline std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

class BenchReport {
 public:
  /// Parses --json from the command line; metrics are dropped if absent.
  BenchReport(std::string bench_name, int argc, char** argv)
      : name_(std::move(bench_name)),
        path_(json_path_from_args(argc, argv)),
        start_(std::chrono::steady_clock::now()) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() { write(); }

  void add(const std::string& metric, double value,
           const std::string& unit = "") {
    metrics_.push_back({metric, value, unit});
  }

  /// Writes the JSON file now (idempotent; also called by the destructor).
  void write() {
    if (path_.empty() || written_) return;
    written_ = true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_util: cannot write %s\n", path_.c_str());
      return;
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"wall_seconds\": %.6f,\n",
                 name_.c_str(), wall);
    std::fprintf(f, "  \"metrics\": [");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"value\": %.17g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ",", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::string name_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
  std::vector<Metric> metrics_;
  bool written_ = false;
};

/// Cross-cutting observability flags peeled off by ODA_BENCH_MAIN before
/// google-benchmark sees the argument vector.
struct BenchRunOptions {
  std::string profile_out;  ///< --profile-out <path>: folded stacks
  std::string trace_out;    ///< --trace-out <path>: Chrome trace JSON
};

/// Rewrites `--json <path>` into google-benchmark's native output flags,
/// expands `--quick` into a short min-time, and strips the profiler/tracer
/// flags into `opts`. Returns the adjusted argv (pointers into `storage`).
inline std::vector<char*> translate_bench_flags(
    int argc, char** argv, std::vector<std::string>& storage,
    BenchRunOptions& opts) {
  storage.clear();
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      storage.push_back("--benchmark_out=" + std::string(argv[i + 1]));
      storage.push_back("--benchmark_out_format=json");
      ++i;
    } else if (arg == "--quick") {
      // Bare seconds value: the pinned libbenchmark predates the "0.01s"
      // suffix syntax.
      storage.push_back("--benchmark_min_time=0.01");
    } else if (arg == "--profile-out" && i + 1 < argc) {
      opts.profile_out = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      opts.trace_out = argv[++i];
    } else {
      storage.push_back(arg);
    }
  }
  std::vector<char*> out;
  out.reserve(storage.size());
  for (auto& s : storage) out.push_back(s.data());
  return out;
}

/// Arms the profiler and/or tracer for the whole benchmark run and writes
/// their artifacts on destruction. Registers the main thread with the
/// thread-watch registry so single-threaded benches still produce samples.
class ScopedBenchProfile {
 public:
  explicit ScopedBenchProfile(const BenchRunOptions& opts)
      : opts_(opts), main_scope_("bench.main") {
    if (!opts_.profile_out.empty()) {
      obs::ProfilerOptions popts;
      popts.interval_us = 1000;  // 1 kHz: plenty for a seconds-long run
      profiling_ = obs::SamplingProfiler::global().start(popts);
      if (!profiling_) {
        std::fprintf(stderr,
                     "bench_util: profiler unavailable (already running); "
                     "no profile will be written\n");
      }
    }
    if (!opts_.trace_out.empty()) {
      obs::Tracer::global().set_capacity(1 << 16);
      obs::Tracer::global().set_enabled(true);
    }
  }

  ScopedBenchProfile(const ScopedBenchProfile&) = delete;
  ScopedBenchProfile& operator=(const ScopedBenchProfile&) = delete;

  ~ScopedBenchProfile() {
    if (profiling_) {
      obs::SamplingProfiler::global().stop();
      obs::SamplingProfiler::global().dump_folded(opts_.profile_out);
    }
    if (!opts_.trace_out.empty()) {
      obs::Tracer::global().set_enabled(false);
      std::FILE* f = std::fopen(opts_.trace_out.c_str(), "w");
      if (f != nullptr) {
        const std::string json =
            obs::chrome_trace_json(obs::Tracer::global().events());
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "bench_util: cannot write %s\n",
                     opts_.trace_out.c_str());
      }
    }
  }

 private:
  BenchRunOptions opts_;
  WatchedThreadScope main_scope_;
  bool profiling_ = false;
};

}  // namespace oda::bench

/// main() for google-benchmark benches with --json/--quick/--profile-out/
/// --trace-out support.
#define ODA_BENCH_MAIN()                                              \
  int main(int argc, char** argv) {                                   \
    std::vector<std::string> oda_bench_storage;                       \
    ::oda::bench::BenchRunOptions oda_bench_opts;                     \
    std::vector<char*> oda_bench_args = ::oda::bench::translate_bench_flags( \
        argc, argv, oda_bench_storage, oda_bench_opts);               \
    int oda_bench_argc = static_cast<int>(oda_bench_args.size());     \
    ::benchmark::Initialize(&oda_bench_argc, oda_bench_args.data());  \
    if (::benchmark::ReportUnrecognizedArguments(oda_bench_argc,      \
                                                 oda_bench_args.data())) \
      return 1;                                                       \
    {                                                                 \
      ::oda::bench::ScopedBenchProfile oda_bench_profile(oda_bench_opts); \
      ::benchmark::RunSpecifiedBenchmarks();                          \
    }                                                                 \
    ::benchmark::Shutdown();                                          \
    return 0;                                                         \
  }
