#include "ledger.hpp"

#include <cstdio>

#include "obs/critical_path.hpp"

namespace tickbench {

namespace {

struct SpanLayer {
  const char* span;
  const char* layer;
};

// The one span -> layer table. "bench.*" spans are the benchmark's own
// wrappers around its calls into each layer; the rest are the program's.
constexpr SpanLayer kSpanLayers[] = {
    {"bench.tick", "ledger"},
    {"bench.sim", "sim"},
    {"sim.step", "sim"},
    {"bench.collect", "collector"},
    {"collector.collect", "collector"},
    {"collector.read_group", "collector"},
    {"collector.read_chunk", "collector"},
    {"collector.read_sensor", "collector"},
    {"store.insert_batch", "store.insert"},
    {"store.frame", "store.read"},
    {"store.fill_column", "store.read"},
    {"bench.query", "store.read"},
    {"bus.publish", "bus.publish"},
    {"bus.deliver", "bus.deliver"},
    {"bench.cells", "analytics"},
    {"bench.control", "control"},
    {"bench.check", "check"},
};

}  // namespace

const std::vector<std::string>& cell_ids() {
  static const std::vector<std::string> ids = {
      "kpi.pue",      "kpi.itue",      "kpi.slowdown",  "kpi.roofline",
      "diag.stress",  "diag.noise",    "diag.bound",    "diag.node",
      "pred.workload", "pred.failure", "pred.spectral", "pred.runtime",
      "presc.setpoint", "presc.dvfs",  "presc.placement", "presc.recommend"};
  return ids;
}

std::string layer_of(const std::string& span_name) {
  for (const SpanLayer& e : kSpanLayers) {
    if (span_name == e.span) return e.layer;
  }
  for (const auto& id : cell_ids()) {
    if (span_name == id) return "cell." + id;
  }
  return "";
}

void Ledger::add(const std::vector<oda::obs::TraceEvent>& events) {
  const auto reports = oda::obs::analyze_critical_path(events, 1 << 20);
  for (const auto& r : reports) {
    if (r.root_name != "bench.tick") continue;
    ++roots;
    root_us += r.root_dur_us;
    spans += r.span_count;
    for (const auto& agg : r.top) {
      const std::string layer = layer_of(agg.name);
      LayerCost& c = layer.empty() ? unmapped[agg.name] : layers[layer];
      c.cp_us += agg.cp_us;
      c.self_us += agg.self_us;
      c.spans += agg.count;
    }
  }
  for (const auto& e : events) {
    if (e.kind == oda::obs::TraceEventKind::kSpan && e.name == "bench.control") {
      control_us += e.dur_us;
    }
  }
}

LayerCost Ledger::layer(const std::string& name) const {
  const auto it = layers.find(name);
  return it == layers.end() ? LayerCost{} : it->second;
}

std::string Ledger::render() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf, "ledger: %llu ticks, %.1f us/tick\n",
                static_cast<unsigned long long>(roots),
                roots ? static_cast<double>(root_us) / static_cast<double>(roots) : 0.0);
  out += buf;
  const auto row = [&](const std::string& name, const LayerCost& c) {
    const double n = roots ? static_cast<double>(roots) : 1.0;
    std::snprintf(buf, sizeof buf, "  %-22s cp %9.1f us/tick  busy %9.1f us/tick  spans %llu\n",
                  name.c_str(), static_cast<double>(c.cp_us) / n,
                  static_cast<double>(c.self_us) / n,
                  static_cast<unsigned long long>(c.spans));
    out += buf;
  };
  for (const auto& [name, c] : layers) row(name, c);
  for (const auto& [name, c] : unmapped) row("unmapped:" + name, c);
  return out;
}

}  // namespace tickbench
