#include "analytics/prescriptive/placement.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

#include "obs/cell.hpp"

namespace oda::analytics {

ThermalAwarePlacement::ThermalAwarePlacement(
    std::function<double(std::size_t)> rack_power, std::size_t racks,
    std::size_t nodes_per_rack)
    : rack_power_(std::move(rack_power)), racks_(racks),
      nodes_per_rack_(nodes_per_rack) {
  ODA_REQUIRE(rack_power_ != nullptr, "rack_power callback required");
  ODA_REQUIRE(racks_ > 0 && nodes_per_rack_ > 0, "bad geometry");
}

namespace {

/// Free node indices of one rack.
std::vector<std::size_t> free_in_rack(const std::vector<bool>& node_busy,
                                      std::size_t rack,
                                      std::size_t nodes_per_rack) {
  std::vector<std::size_t> out;
  for (std::size_t n = 0; n < nodes_per_rack; ++n) {
    const std::size_t idx = rack * nodes_per_rack + n;
    if (idx < node_busy.size() && !node_busy[idx]) out.push_back(idx);
  }
  return out;
}

/// Locality-preserving fill: take whole racks in `rack_order` preference,
/// using a single rack when the job fits (cross-rack splits cost network
/// contention, so both the siloed and the thermal-aware policy avoid them —
/// they differ only in *which* rack they prefer).
std::optional<std::vector<std::size_t>> place_rack_local(
    const sim::JobSpec& spec, const std::vector<bool>& node_busy,
    const std::vector<std::size_t>& rack_order, std::size_t nodes_per_rack) {
  // First choice: the most-preferred rack that fits the whole job.
  for (std::size_t rack : rack_order) {
    auto free_nodes = free_in_rack(node_busy, rack, nodes_per_rack);
    if (free_nodes.size() >= spec.nodes_requested) {
      free_nodes.resize(spec.nodes_requested);
      return free_nodes;
    }
  }
  // Fallback: spill across racks in preference order.
  std::vector<std::size_t> chosen;
  for (std::size_t rack : rack_order) {
    for (std::size_t idx : free_in_rack(node_busy, rack, nodes_per_rack)) {
      chosen.push_back(idx);
      if (chosen.size() == spec.nodes_requested) return chosen;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::vector<std::size_t>> ThermalAwarePlacement::place(
    const sim::JobSpec& spec, const std::vector<bool>& node_busy) {
  ODA_CELL_SCOPE("presc.placement");
  // Rank racks coolest-first (by power, our hotspot proxy).
  std::vector<std::size_t> rack_order(racks_);
  std::iota(rack_order.begin(), rack_order.end(), 0);
  std::sort(rack_order.begin(), rack_order.end(),
            [&](std::size_t a, std::size_t b) {
              return rack_power_(a) < rack_power_(b);
            });
  return place_rack_local(spec, node_busy, rack_order, nodes_per_rack_);
}

std::optional<std::vector<std::size_t>> PackPlacement::place(
    const sim::JobSpec& spec, const std::vector<bool>& node_busy) {
  // Prefer racks that are already partially used (most-loaded first) so
  // load concentrates — the deliberately siloed baseline. Same rack-local
  // fill as the thermal policy; only the rack preference differs.
  const std::size_t racks = (node_busy.size() + nodes_per_rack_ - 1) / nodes_per_rack_;
  std::vector<std::pair<std::size_t, std::size_t>> usage;  // (busy, rack)
  for (std::size_t r = 0; r < racks; ++r) {
    std::size_t busy = 0;
    for (std::size_t n = 0; n < nodes_per_rack_; ++n) {
      const std::size_t idx = r * nodes_per_rack_ + n;
      if (idx < node_busy.size() && node_busy[idx]) ++busy;
    }
    usage.push_back({busy, r});
  }
  std::sort(usage.begin(), usage.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::size_t> rack_order;
  rack_order.reserve(usage.size());
  for (const auto& [busy, rack] : usage) rack_order.push_back(rack);
  return place_rack_local(spec, node_busy, rack_order, nodes_per_rack_);
}

std::shared_ptr<ThermalAwarePlacement> make_thermal_placement(
    sim::ClusterSimulation& cluster) {
  return std::make_shared<ThermalAwarePlacement>(
      [&cluster](std::size_t rack) { return cluster.rack_power_w(rack); },
      cluster.rack_count(), cluster.params().nodes_per_rack);
}

}  // namespace oda::analytics
