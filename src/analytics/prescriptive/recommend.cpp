#include "analytics/prescriptive/recommend.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"

#include "obs/cell.hpp"

namespace oda::analytics {

JobProfile profile_job(const telemetry::TimeSeriesStore& store,
                       const sim::JobRecord& record,
                       const std::vector<std::string>& node_prefixes,
                       Duration bucket) {
  ODA_CELL_SCOPE("presc.recommend");
  JobProfile profile;
  std::vector<double> per_node_cpu;
  double cpu = 0.0, mem = 0.0, net = 0.0, io = 0.0;
  std::size_t counted = 0;
  for (std::size_t n : record.nodes) {
    ODA_REQUIRE(n < node_prefixes.size(), "node index out of range");
    const auto read_mean = [&](const char* leaf) {
      const auto slice = store.query_aggregated(
          node_prefixes[n] + "/" + leaf, record.start_time, record.end_time,
          bucket, telemetry::Aggregation::kMean);
      return slice.empty() ? 0.0 : mean(slice.values);
    };
    const double node_cpu = read_mean("cpu_util");
    per_node_cpu.push_back(node_cpu);
    cpu += node_cpu;
    mem += read_mean("mem_bw_util");
    net += read_mean("net_util");
    io += read_mean("io_util");
    ++counted;
  }
  if (counted == 0) return profile;
  const double k = static_cast<double>(counted);
  profile.cpu_util = cpu / k;
  profile.mem_bw_util = mem / k;
  profile.net_util = net / k;
  profile.io_util = io / k;
  profile.cpu_util_stddev = stddev(per_node_cpu);

  const double runtime = std::max<double>(1.0, static_cast<double>(record.run_time()));
  profile.walltime_request_ratio =
      static_cast<double>(record.spec.walltime_requested) / runtime;

  // Reuse the diagnostic boundedness thresholds on the aggregated profile.
  if (profile.cpu_util < 0.1 && profile.mem_bw_util < 0.1 &&
      profile.net_util < 0.1 && profile.io_util < 0.1) {
    profile.boundedness = Boundedness::kIdle;
  } else if (profile.io_util > 0.5 && profile.io_util > profile.mem_bw_util &&
             profile.io_util > profile.net_util) {
    profile.boundedness = Boundedness::kIo;
  } else if (profile.net_util > 0.5 && profile.net_util > profile.mem_bw_util) {
    profile.boundedness = Boundedness::kNetwork;
  } else if (profile.mem_bw_util > 0.6 ||
             (profile.mem_bw_util > 0.4 &&
              profile.mem_bw_util > profile.cpu_util * 0.8)) {
    profile.boundedness = Boundedness::kMemory;
  } else {
    profile.boundedness = Boundedness::kCompute;
  }
  return profile;
}

std::vector<Recommendation> recommend(const JobProfile& p) {
  std::vector<Recommendation> recs;

  switch (p.boundedness) {
    case Boundedness::kMemory:
      recs.push_back({1, "memory",
                      "memory bandwidth " + format_double(p.mem_bw_util, 2) +
                          " vs CPU " + format_double(p.cpu_util, 2) +
                          ": the code stalls on memory",
                      "improve locality (blocking/tiling, structure-of-arrays"
                      "); this job also benefits from a lower CPU frequency "
                      "at negligible slowdown (energy-mode DVFS)"});
      break;
    case Boundedness::kNetwork:
      recs.push_back({1, "network",
                      "network utilization " + format_double(p.net_util, 2) +
                          " dominates: communication-bound",
                      "overlap communication with computation, aggregate "
                      "messages, and request rack-local placement to avoid "
                      "oversubscribed uplinks"});
      break;
    case Boundedness::kIo:
      recs.push_back({1, "io",
                      "I/O utilization " + format_double(p.io_util, 2) +
                          " dominates the runtime",
                      "batch small writes, use collective I/O, and consider "
                      "fewer, larger checkpoints"});
      break;
    case Boundedness::kCompute:
      if (p.cpu_util < 0.7) {
        recs.push_back({2, "compute",
                        "compute-bound but CPU utilization only " +
                            format_double(p.cpu_util, 2),
                        "profile for serialization or load imbalance; vector"
                        "ization headroom is likely"});
      }
      break;
    case Boundedness::kIdle:
      recs.push_back({1, "sizing",
                      "all resource utilizations below 10%",
                      "the allocation is idle most of the time: reduce node "
                      "count or investigate startup/licensing stalls"});
      break;
  }

  if (p.cpu_util_stddev > 0.15 && p.boundedness != Boundedness::kIdle) {
    recs.push_back({1, "imbalance",
                    "per-node CPU utilization spread (stddev " +
                        format_double(p.cpu_util_stddev, 2) +
                        ") indicates load imbalance",
                    "rebalance the domain decomposition or enable work "
                    "stealing; the slowest rank gates every iteration"});
  }

  if (p.walltime_request_ratio > 3.0) {
    recs.push_back({3, "sizing",
                    "walltime request " +
                        format_double(p.walltime_request_ratio, 1) +
                        "x the actual runtime",
                    "tighten the request: shorter requests backfill sooner "
                    "and cut queue waits (see the runtime predictor)"});
  }

  std::sort(recs.begin(), recs.end(),
            [](const Recommendation& a, const Recommendation& b) {
              return a.priority < b.priority;
            });
  return recs;
}

std::vector<Recommendation> recommend_for_job(
    const telemetry::TimeSeriesStore& store, const sim::JobRecord& record,
    const std::vector<std::string>& node_prefixes) {
  return recommend(profile_job(store, record, node_prefixes));
}

std::string render_recommendations(const sim::JobRecord& record,
                                   const std::vector<Recommendation>& recs) {
  TextTable table({"#", "category", "finding", "advice"});
  table.set_title("RECOMMENDATIONS for job " + std::to_string(record.spec.id) +
                  " (" + record.spec.user + ")");
  table.set_max_width(2, 34);
  table.set_max_width(3, 40);
  for (const auto& r : recs) {
    table.add_row({std::to_string(r.priority), r.category, r.finding, r.advice});
  }
  if (recs.empty()) {
    table.add_row({"-", "-", "no inefficiency patterns found", "-"});
  }
  return table.render();
}

}  // namespace oda::analytics
