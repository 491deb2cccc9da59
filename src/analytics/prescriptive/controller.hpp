// Prescriptive-pillar control plumbing: a Controller senses (store) and
// actuates (cluster knobs) at a fixed period; the ControlLoop multiplexes
// several controllers over the simulation and keeps an audit trail of the
// recent actuations — operators need to know what the ODA system did and
// why — plus a lifetime count.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/cluster.hpp"
#include "telemetry/store.hpp"

namespace oda::analytics {

/// One knob change performed by a controller, for the audit log.
struct Actuation {
  TimePoint time = 0;
  std::string controller;
  std::string knob;
  double old_value = 0.0;
  double new_value = 0.0;
  std::string reason;
};

class Controller {
 public:
  virtual ~Controller() = default;
  virtual const char* name() const = 0;
  /// Control period; the loop invokes act() when now % period == 0.
  virtual Duration period() const = 0;
  /// Sense + decide + actuate. Implementations must perform all writes via
  /// cluster.knobs() and report them through `log`.
  virtual void act(sim::ClusterSimulation& cluster,
                   const telemetry::TimeSeriesStore& store,
                   std::vector<Actuation>& log) = 0;
};

class ControlLoop {
 public:
  /// The audit log keeps this many most recent actuations; older ones are
  /// dropped so a long-running loop holds bounded state.
  static constexpr std::size_t kAuditCapacity = 4096;

  explicit ControlLoop(sim::ClusterSimulation& cluster,
                       const telemetry::TimeSeriesStore& store)
      : cluster_(cluster), store_(store) {}

  void add(std::shared_ptr<Controller> controller);

  /// Call once per sim step (after collection).
  void tick();

  /// The most recent actuations (at most kAuditCapacity), oldest first.
  const std::deque<Actuation>& audit_log() const { return audit_; }
  /// Every actuation since construction, including those the audit log
  /// has dropped.
  std::size_t actuation_count() const { return actuations_; }

 private:
  sim::ClusterSimulation& cluster_;
  const telemetry::TimeSeriesStore& store_;
  std::vector<std::shared_ptr<Controller>> controllers_;
  std::deque<Actuation> audit_;
  /// Reused per act() call: controllers append here, tick() moves the
  /// entries into audit_.
  std::vector<Actuation> pending_;
  std::size_t actuations_ = 0;
};

/// Helper for controllers: set a knob and append to the audit log in one go.
void actuate(sim::ClusterSimulation& cluster, std::vector<Actuation>& log,
             const std::string& controller, const std::string& knob,
             double value, const std::string& reason);

}  // namespace oda::analytics
