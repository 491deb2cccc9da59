// Telemetry primitives: a timestamped reading and the catalog describing
// the sensors a monitoring deployment knows about.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace oda::telemetry {

struct Sample {
  TimePoint time = 0;
  double value = 0.0;
};

struct Reading {
  std::string path;
  Sample sample;
};

struct SensorInfo {
  std::string path;
  std::string unit;
};

/// Registry of known sensors, queryable by glob pattern.
class SensorCatalog {
 public:
  void add(SensorInfo info);
  bool contains(const std::string& path) const;
  std::optional<SensorInfo> find(const std::string& path) const;
  /// Paths matching a glob pattern ('*' and '?'), in insertion order.
  std::vector<std::string> match(const std::string& pattern) const;
  /// Insertion indices (into paths()) of the paths matching `pattern`.
  std::vector<std::size_t> match_indices(const std::string& pattern) const;
  std::size_t size() const { return order_.size(); }
  const std::vector<std::string>& paths() const { return order_; }

 private:
  std::map<std::string, SensorInfo> sensors_;
  std::vector<std::string> order_;
};

}  // namespace oda::telemetry
