#include "analytics/prescriptive/controller.hpp"

#include <cmath>

#include "common/error.hpp"

namespace oda::analytics {

void ControlLoop::add(std::shared_ptr<Controller> controller) {
  ODA_REQUIRE(controller != nullptr, "null controller");
  ODA_REQUIRE(controller->period() > 0, "controller period must be positive");
  controllers_.push_back(std::move(controller));
}

void ControlLoop::tick() {
  const TimePoint now = cluster_.now();
  for (auto& c : controllers_) {
    if (now % c->period() != 0) continue;
    pending_.clear();
    c->act(cluster_, store_, pending_);
    actuations_ += pending_.size();
    for (Actuation& a : pending_) audit_.push_back(std::move(a));
    while (audit_.size() > kAuditCapacity) audit_.pop_front();
  }
}

void actuate(sim::ClusterSimulation& cluster, std::vector<Actuation>& log,
             const std::string& controller, const std::string& knob,
             double value, const std::string& reason) {
  Actuation a;
  a.time = cluster.now();
  a.controller = controller;
  a.knob = knob;
  a.old_value = cluster.knobs().get(knob);
  cluster.knobs().set(knob, value);
  a.new_value = cluster.knobs().get(knob);  // post-clamp value
  a.reason = reason;
  if (std::abs(a.new_value - a.old_value) > 1e-12) log.push_back(std::move(a));
}

}  // namespace oda::analytics
