#include "telemetry/sample.hpp"

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace oda::telemetry {

void SensorCatalog::add(SensorInfo info) {
  ODA_REQUIRE(!info.path.empty(), "sensor path must be non-empty");
  const auto [it, inserted] = sensors_.emplace(info.path, info);
  if (inserted) {
    order_.push_back(info.path);
  } else {
    it->second = std::move(info);
  }
}

bool SensorCatalog::contains(const std::string& path) const {
  return sensors_.count(path) != 0;
}

std::optional<SensorInfo> SensorCatalog::find(const std::string& path) const {
  const auto it = sensors_.find(path);
  if (it == sensors_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> SensorCatalog::match(const std::string& pattern) const {
  std::vector<std::string> out;
  for (const std::size_t i : match_indices(pattern)) out.push_back(order_[i]);
  return out;
}

std::vector<std::size_t> SensorCatalog::match_indices(
    const std::string& pattern) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (glob_match(pattern, order_[i])) out.push_back(i);
  }
  return out;
}

}  // namespace oda::telemetry
